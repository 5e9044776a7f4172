# Byte-identity pins of acr_driver's --trace output, run by ctest:
#
#   cmake -DDRIVER=<path to acr_driver> -DPIN=<name> -P driver_trace_pins.cmake
#
# Each pin runs the driver with its flags plus --trace, takes the SHA-256 of
# stdout followed by stderr, and compares it (and the exit code) with the
# constant recorded below. The run is deterministic in virtual time, so any
# change to the protocol order, a barrier id, a trace line, a wire byte or a
# virtual time shows up here. On a mismatch the check prints both hashes and
# the head of the output; diff that output against a build of the parent.
#
# examples/CMakeLists.txt includes this file (PIN undefined) only to read the
# pin names into trace_pin_names; one ctest case per name.
#
# The scenarios cover acr::Manager's restore waves: SDC rollback, partner
# restore, rs group rebuild, recovery checkpoint (medium/hardonly), weak
# recovery, escalated rollback (partner and rs), scratch restart, L2 fetch
# wave, drain, and the link-failure degradation. Re-pin a scenario only on
# purpose, and say why.

set(trace_pin_names "")
macro(trace_pin name rc sha)
  list(APPEND trace_pin_names ${name})
  if(DEFINED PIN AND PIN STREQUAL "${name}")
    set(pin_rc ${rc})
    set(pin_sha ${sha})
    set(pin_args ${ARGN})
  endif()
endmacro()

# trace_pin(<name> <exit code> <sha256 of stdout+stderr> <driver flags>...)
trace_pin(partner_sdc 0
  a3dcc0b7b9ff612abb5a05781ee42ccae838918214469e0abf73b765aa534969
  --fault-mtbf 0.02 --sdc-fraction 0.3 --seed 1)
trace_pin(rs_burst_shrink 0
  771c6ee8ff2f88dec920a07bf5358214291f4f6f146f1687237e52b42762e92a
  --ckpt-scheme rs --burst-mtbf 0.02 --degrade shrink --spares 2
  --spare-repair-time 0.01 --seed 2)
trace_pin(local_faults 0
  0e9e19462a49f86ee3f8f3c2a5ada11cd2cec1bea1082501fb1d12fd63869451
  --ckpt-scheme local --fault-mtbf 0.03 --seed 1)
trace_pin(hpccg_medium 0
  272a72077c1d3e1225be02436824cf647ab20f0dc03685942bf7f9ba51a65df8
  --app hpccg --scheme medium --fault-mtbf 0.03 --seed 1)
trace_pin(lulesh_weak 0
  048862613500d79f9169f797a5e67f6f999d02dec1bcfbdc67b8b5d682aa13a9
  --app lulesh --scheme weak --fault-mtbf 0.03 --seed 1)
trace_pin(hpccg_hardonly 0
  78cdfaef2af7e1174b08b69f5d75511e4fd25957f6d8b358de92ab98dbf62bb4
  --app hpccg --scheme hardonly --fault-mtbf 0.03 --seed 2)
# L2 fetch wave: a burst takes out more of an rs group than its parity.
trace_pin(rs_l2_fetch 0
  5aff06174ea335caf6aa616d48e25379b6f6a285dd85ad3381b179f90da3045d
  --ckpt-scheme rs --l2-bandwidth 1e9 --burst-mtbf 0.015 --burst-follow 0.9
  --spares 16 --spare-repair-time 0.01 --seed 1)
# Escalated rollback: a second failure lands during a partner recovery.
trace_pin(partner_escalation 0
  4c02db83ee28308e0f9798e9ecbc1e4355de9faf16284d67984e8d5643226389
  --burst-mtbf 0.02 --burst-follow 0.8 --spares 16 --seed 3)
# The same burst plan under rs(1), which runs over its parity budget.
trace_pin(xor_escalation 0
  7e928a7d7c2bddeded82d4335bec6b39a09e1f7447d54eb1236290fd7b0d66fd
  --ckpt-scheme xor --burst-mtbf 0.02 --burst-follow 0.8 --spares 16 --seed 3)
trace_pin(checksum_lossy 0
  7d80fa23426844c5c019b65aa769b02b7275b29de55f1b128c27928db0821a93
  --detection checksum --fault-mtbf 0.02 --sdc-fraction 0.6 --net-loss 0.02
  --seed 2)
trace_pin(rs_delta_lz_l2 0
  04cfa73fcd8db95b4c906bf8f0d38afcb30ce09ab4eed685e6160ff943dba4a1
  --ckpt-scheme rs --ckpt-delta on --ckpt-compress lz --l2-bandwidth 1e9
  --fault-mtbf 0.02 --spares 16 --seed 4)
trace_pin(partner_delta_lz_l2 0
  df983eb9bd68996257d5bbb3e43129ecb2deaa6cbf921461758d7bd04a0766e1
  --ckpt-delta on --ckpt-compress lz --l2-bandwidth 1e9 --fault-mtbf 0.03
  --seed 5)
trace_pin(halt_drain 0
  1afc0a628c72e970a51ce091b83e6a51514fe41397df5d28a3822468f2153ab5
  --l2-bandwidth 1e9 --halt-after 0.03 --fault-mtbf 0.03 --seed 1)
trace_pin(minimd_predictor 0
  b6ee20ca407e9a40d4604e229e3b7c415ba8c1f9de40190f5bb68ddcf8d65baf
  --app minimd --predictor-recall 0.8 --weibull-shape 0.7 --fault-mtbf 0.02
  --seed 3)
# Ends FAILED (spare pool exhausted): exit code 1.
trace_pin(leanmd_adaptive 1
  8280c7054e615fc821cd88713c96a0f723b2e8f335a0e1b119b39da45003730e
  --app leanmd --adaptive --fault-mtbf 0.02 --sdc-fraction 0.5 --seed 2)
# Recovery during reordered protocol traffic, at a seed that completes.
trace_pin(reorder_probe 0
  74e67e51f9bebac0e3d64defa80daf0feadfb6275a06e4605fbc02b46612b2a2
  --nodes 8 --iterations 40 --interval 0.003 --fault-mtbf 0.0291
  --sdc-fraction 0 --net-reorder 0.1 --seed 2)
# Links that exhaust their retry budget degrade the job to scratch restarts;
# a frame sent before the newest relaunch no longer triggers another one.
trace_pin(link_failure 1
  149abfaa630d88a9d5448027497ed3d67270140236a53bbabb1b05539667295d
  --net-loss 0.05 --net-retry-budget 2 --fault-mtbf 0.05 --seed 4)

if(NOT DEFINED PIN)
  return()  # included for the name list only
endif()
if(NOT DEFINED pin_sha)
  message(FATAL_ERROR "unknown PIN '${PIN}'; known: ${trace_pin_names}")
endif()

execute_process(COMMAND "${DRIVER}" ${pin_args} --trace
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
string(SHA256 sha "${out}${err}")
if(NOT sha STREQUAL pin_sha OR NOT rc STREQUAL pin_rc)
  string(SUBSTRING "${out}${err}" 0 3000 head)
  list(JOIN pin_args " " flags)
  message(FATAL_ERROR
          "trace pin '${PIN}' changed\n"
          "  flags:    ${flags}\n"
          "  expected: exit ${pin_rc}, sha256 ${pin_sha}\n"
          "  got:      exit ${rc}, sha256 ${sha}\n"
          "--- head of stdout+stderr ---\n${head}")
endif()
