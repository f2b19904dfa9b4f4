# Runs EXE on ARG and passes only when it exits with status 2 and its
# stderr contains MESSAGE: a refusal, not a crash (a signal is not an
# exit status) and not a success.
#
#   cmake -DEXE=<program> -DARG=<argument> -DMESSAGE=<text> \
#         -P expect_refusal.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
    message(FATAL_ERROR
        "expected exit status 2, got '${status}'\n"
        "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${MESSAGE}':\n${err}")
endif()
