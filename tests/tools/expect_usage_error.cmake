# Runs PROGRAM with ARGS (one string, split like a shell command line) and
# fails unless it exits with status 2 within 10 s and its stderr contains
# MESSAGE.  Usage:
#   cmake -DPROGRAM=<exe> -DARGS=<args> -DMESSAGE=<text> -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 10)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${MESSAGE}':\n${err}")
endif()
