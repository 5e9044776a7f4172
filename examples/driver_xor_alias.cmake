# acr_driver CLI check for the --ckpt-scheme=xor alias, run by ctest:
#
#   cmake -DDRIVER=<path to acr_driver> -DCHECK=trace|reject -P driver_xor_alias.cmake
#
# trace:  --ckpt-scheme=xor is rs with one parity block per stripe, so its
#         full --trace output (stdout and stderr) must be byte-identical to
#         the same run under --ckpt-scheme=rs --rs-parity=1.
# reject: --rs-parity does not combine with xor (its parity count is fixed
#         at 1); the driver must refuse it as a usage error (exit 2).
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
  execute_process(COMMAND "${DRIVER}" --ckpt-scheme=xor --rs-parity=2
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}:\n${out}${err}")
  endif()
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}' (trace or reject)")
endif()
