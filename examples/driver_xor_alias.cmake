# acr_driver CLI check for the --ckpt-scheme=xor alias, run by ctest:
#
#   cmake -DDRIVER=<path to acr_driver> -DCHECK=trace|reject -P driver_xor_alias.cmake
#
# trace:  --ckpt-scheme=xor is rs with one parity block per stripe, so its
#         full --trace output (stdout and stderr) must be byte-identical to
#         the same run under --ckpt-scheme=rs --rs-parity=1.
# reject: flag combinations the driver must refuse as usage errors (exit 2):
#         --rs-parity with xor (its parity count is fixed at 1), and the
#         tier, group-size and parity inputs checked by the driver or by
#         the library's validate_tier_config / validate_redundancy_config.
set(run --xor-group-size=4 --fault-mtbf=0.05 --seed=3 --trace)

if(CHECK STREQUAL "trace")
  execute_process(COMMAND "${DRIVER}" --ckpt-scheme=xor ${run}
                  OUTPUT_VARIABLE xor_out ERROR_VARIABLE xor_err
                  RESULT_VARIABLE xor_rc)
  execute_process(COMMAND "${DRIVER}" --ckpt-scheme=rs --rs-parity=1 ${run}
                  OUTPUT_VARIABLE rs_out ERROR_VARIABLE rs_err
                  RESULT_VARIABLE rs_rc)
  if(NOT xor_rc EQUAL 0 OR NOT rs_rc EQUAL 0)
    message(FATAL_ERROR "driver failed: xor exit ${xor_rc}, rs exit ${rs_rc}")
  endif()
  if(NOT xor_out MATCHES "protocol trace:")
    message(FATAL_ERROR "xor run printed no trace:\n${xor_out}")
  endif()
  if(NOT xor_out STREQUAL rs_out OR NOT xor_err STREQUAL rs_err)
    message(FATAL_ERROR "--ckpt-scheme=xor output differs from rs(1):\n"
                        "--- xor ---\n${xor_out}${xor_err}\n"
                        "--- rs --rs-parity=1 ---\n${rs_out}${rs_err}")
  endif()
elseif(CHECK STREQUAL "reject")
  set(cases
      "--ckpt-scheme=xor --rs-parity=2"
      "--ckpt-scheme=xor --xor-group-size=0"
      "--ckpt-scheme=rs --xor-group-size=1"
      "--ckpt-scheme=rs --xor-group-size=16 --nodes=8"
      "--ckpt-scheme=rs --rs-parity=0"
      "--l2-bandwidth=-1"
      "--l2-latency=0.001"
      "--flush-interval=2"
      "--halt-after=0.01"
      "--l2-bandwidth=1e9 --l2-latency=-1"
      "--l2-bandwidth=1e9 --flush-interval=0"
      "--l2-bandwidth=1e9 --halt-after=-1")
  foreach(case IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${case}")
    execute_process(COMMAND "${DRIVER}" ${args}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${case}: expected exit 2, got ${rc}:\n${out}${err}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}' (trace or reject)")
endif()
