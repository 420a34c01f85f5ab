# Runs PROGRAM with ARGS ('|'-separated) and fails unless it exits with
# EXIT_CODE:
#   cmake -DPROGRAM=<exe> -DARGS=<a|b|c> -DEXIT_CODE=<n> -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR
    "${PROGRAM} ${ARGS}: exit '${code}', want ${EXIT_CODE}\n${out}${err}")
endif()
message(STATUS "exit ${code}: ${err}")
