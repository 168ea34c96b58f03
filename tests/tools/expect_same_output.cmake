# Runs PROGRAM with ARGS_A and again with ARGS_B (each one string, split
# like a shell command line) and fails unless both runs exit with status 0
# within 60 s and print the same stdout, byte for byte.  Usage:
#   cmake -DPROGRAM=<exe> -DARGS_A=<args> -DARGS_B=<args> -P expect_same_output.cmake
foreach(run A B)
  separate_arguments(args UNIX_COMMAND "${ARGS_${run}}")
  execute_process(
    COMMAND "${PROGRAM}" ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out_${run}
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "'${ARGS_${run}}' exited with '${status}'\nstderr:\n${err}")
  endif()
endforeach()
if(NOT out_A STREQUAL out_B)
  message(FATAL_ERROR "stdout differs\n--- ${ARGS_A}\n${out_A}\n--- ${ARGS_B}\n${out_B}")
endif()
