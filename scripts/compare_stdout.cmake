# Runs PROGRAM and fails unless its stdout equals the file EXPECTED byte
# for byte. On a mismatch the actual output is written to ACTUAL so it can
# be diffed against the pin.
#
#   cmake -DPROGRAM=<exe> -DEXPECTED=<pin> -DACTUAL=<out> -P compare_stdout.cmake
execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from its pin:\n"
                      "  diff ${EXPECTED} ${ACTUAL}")
endif()
