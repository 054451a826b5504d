# ctest helper (bench_unwritable_figure): run a figure bench in a
# temporary directory where the path of its figure is a directory, and
# require exit 1, a diagnostic on stderr that names the path, and no
# "wrote" line for it. Driven through `cmake -P` because add_test
# cannot prepare a working directory.
#
# Inputs: -DBENCH=<bench binary> -DFIGURE=<file name the bench writes>
#         -DWORK_DIR=<temporary directory, removed afterwards>

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/${FIGURE})
execute_process(
    COMMAND ${BENCH} --benchmark_filter=NONE
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
file(REMOVE_RECURSE ${WORK_DIR})
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "error: [^\n]*'${FIGURE}'")
    message(FATAL_ERROR "no diagnostic naming ${FIGURE}:\n${err}")
endif()
if(out MATCHES "wrote ${FIGURE}")
    message(FATAL_ERROR "reports the figure as written:\n${out}")
endif()
