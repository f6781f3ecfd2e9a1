# Bad usage of an example is exit 1 with a usage line: a garbled --seed
# (not an uncaught exception) and a stray positional argument (not a
# seed parsed from its leading digits).
#
#   cmake -DTOOL=path/to/quickstart -P examples/usage_test.cmake
foreach(arg --seed=12x 12x)
  execute_process(COMMAND "${TOOL}" ${arg}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "`${TOOL} ${arg}` exited ${rc}, expected 1 with usage\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
endforeach()
