# ctest helper (cli_sweep_error_once): a sweep that fails at every
# point reports its error once, at any --jobs. Runs one gables command
# with --jobs 1 and with --jobs 4 and requires exit 1 from both, and
# standard error byte-identical between them and exactly one line
# long. Driven through `cmake -P` because add_test cannot compare two
# runs.
#
# Inputs: -DGABLES=<gables binary> -DARGS=<command and options, a
#         ;-list>

foreach(jobs 1 4)
    execute_process(
        COMMAND ${GABLES} ${ARGS} --jobs ${jobs}
        OUTPUT_QUIET
        ERROR_VARIABLE err_${jobs}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "--jobs ${jobs}: expected exit 1, got "
                            "'${rc}'; stderr:\n${err_${jobs}}")
    endif()
endforeach()
if(NOT err_1 STREQUAL err_4)
    message(FATAL_ERROR "stderr differs between --jobs 1:\n${err_1}"
                        "and --jobs 4:\n${err_4}")
endif()
string(REGEX MATCHALL "\n" newlines "${err_1}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err_1 MATCHES "\n$")
    message(FATAL_ERROR "expected one line on stderr, got:\n${err_1}")
endif()
