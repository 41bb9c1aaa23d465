# Runs BIN with the space-separated ARGS and fails unless its stdout equals
# the file EXPECTED byte for byte.
#   cmake -DBIN=<exe> "-DARGS=<args>" -DEXPECTED=<file> -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${EXPECTED}\n"
          "--- expected\n${expected}--- actual\n${actual}")
endif()
