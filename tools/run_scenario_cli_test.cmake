# Exit-code contract of run_scenario: a bare spec path and a garbled
# --seed are bad usage (1), `run` on a malformed spec is a spec error
# (2), and `hash` on a checked-in spec succeeds (0) and prints its
# 64-hex-digit content hash. Also pins the override precedence: flag
# beats variable beats spec, the same for `run` and `hash`.
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

# Overrides: a flag and its variable run the same experiment, the flag
# beats the variable, and `hash` names what `run` executes.
file(WRITE "${WORK_DIR}/small.spec"
     "name = cli_small\ntopology = point-to-point\ncalibrate = 0\n"
     "samples = 200\nrepro_scaled = 0\nsweep.jitter_ps = 40, 120\n")
set(small "${WORK_DIR}/small.spec")
set(env "${CMAKE_COMMAND}" -E env --unset=OCI_SEED --unset=OCI_PRECISION
        --unset=OCI_MAX_SAMPLES --unset=OCI_SCENARIO_CACHE)

expect_exit(0 ${env} OCI_SEED=7 "${TOOL}" run --out=env.json "${small}")
string(REPLACE "env.json" "" by_env "${out}")
expect_exit(0 ${env} "${TOOL}" run --seed=7 --out=flag.json "${small}")
string(REPLACE "flag.json" "" by_flag "${out}")
if(NOT by_env STREQUAL by_flag OR NOT by_flag MATCHES "seed=7,")
  message(FATAL_ERROR "OCI_SEED=7 and --seed=7 differ:\n${by_env}\nvs\n${by_flag}")
endif()
expect_exit(0 ${env} OCI_SEED=5 "${TOOL}" run --seed=9 --out=both.json "${small}")
if(NOT out MATCHES "seed=9,")
  message(FATAL_ERROR "--seed=9 did not beat OCI_SEED=5:\n${out}")
endif()

expect_exit(0 ${env} "${TOOL}" hash "${spec}")
set(plain "${out}")
expect_exit(0 ${env} "${TOOL}" hash --precision=0.02 "${spec}")
set(by_flag "${out}")
expect_exit(0 ${env} OCI_PRECISION=0.02 "${TOOL}" hash "${spec}")
if(NOT out STREQUAL by_flag OR out STREQUAL plain)
  message(FATAL_ERROR "hash: plain '${plain}', --precision '${by_flag}', "
                      "OCI_PRECISION '${out}'")
endif()

# A sweep value its key rejects fails `hash` as a spec error, like `run`.
file(WRITE "${WORK_DIR}/wide.spec" "sweep.coarse_bits = 5, 4294967297\n")
expect_exit(2 "${TOOL}" hash "${WORK_DIR}/wide.spec")
file(WRITE "${WORK_DIR}/label.spec" "topology = stack-noc\nsweep.mac = tdma, bogus\n")
expect_exit(2 "${TOOL}" hash "${WORK_DIR}/label.spec")
