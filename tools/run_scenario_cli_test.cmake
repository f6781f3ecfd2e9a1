# Exit-code contract of run_scenario: a bare spec path and a garbled
# --seed are bad usage (1), `run` on a malformed spec is a spec error
# (2), and `hash` on a checked-in spec succeeds (0) and prints its
# 64-hex-digit content hash.
#
#   cmake -DTOOL=path/to/run_scenario -DSOURCE_DIR=repo -DWORK_DIR=dir \
#         -P tools/run_scenario_cli_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(expect_exit expected)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    message(FATAL_ERROR "`${ARGN}` exited ${rc}, expected ${expected}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

set(spec "${SOURCE_DIR}/scenarios/link_jitter.spec")

expect_exit(1 "${TOOL}" "${spec}")

file(WRITE "${WORK_DIR}/malformed.spec" "name = bad\nthis line has no equals\n")
expect_exit(2 "${TOOL}" run "${WORK_DIR}/malformed.spec")

expect_exit(0 "${TOOL}" hash "${spec}")
string(REGEX MATCH "^[0-9a-f]+" digest "${out}")
string(LENGTH "${digest}" digest_len)
if(NOT digest_len EQUAL 64 OR NOT out MATCHES "^[0-9a-f]+  ")
  message(FATAL_ERROR "hash printed '${out}', expected 64 hex digits then the path")
endif()

# A garbled --seed is bad usage, not a silent fall-back to the spec seed.
expect_exit(1 "${TOOL}" run --seed=12x "${spec}")
