# ctest helper (cli_*_stdout_full): run one gables command with its
# standard output on /dev/full, where every write fails with ENOSPC,
# and require exit 1 with the diagnostic on stderr. Driven through
# `cmake -P` because add_test cannot redirect a stream. Linux only.
#
# Inputs: -DGABLES=<gables binary> -DARGS=<command and options, a
#         ;-list>

execute_process(
    COMMAND ${GABLES} ${ARGS}
    OUTPUT_FILE /dev/full
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "gables: error: cannot write standard output")
    message(FATAL_ERROR "diagnostic missing from stderr:\n${err}")
endif()
