# Negative-path smoke test for operb_cli, run via `cmake -P` from ctest.
# Expects -DOPERB_CLI=<path to binary> and -DWORK_DIR=<scratch dir>.
#
# Every malformed invocation must exit with the documented usage code (2),
# print a one-line diagnostic on stderr, and never reach a CHECK abort
# (which would exit 134/SIGABRT and print "OPERB_CHECK failed").

if(NOT OPERB_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DOPERB_CLI=... -DWORK_DIR=... -P RunCliNegative.cmake")
endif()

# Each case: a label, then the space-separated argument list (no argument
# contains a space; ';' cannot be the separator because it would flatten
# the outer CMake list).
set(cases
  "unknown_algorithm|--algorithm NOPE"
  "negative_zeta|--zeta -3"
  "zero_zeta|--zeta 0"
  "malformed_zeta|--zeta abc"
  "locale_comma_spec|--spec OPERB:zeta=2,5"
  "unknown_spec_algorithm|--spec NOPE:zeta=5"
  "unknown_spec_option|--spec DP:gamma_m=1"
  "out_of_range_spec_option|--spec OPERB:step_length=7"
  "malformed_spec|--spec OPERB:zeta"
  "bad_fidelity|--fidelity fast"
  "zero_threads|--group-by-id --threads 0"
  "unknown_flag|--wibble"
  "bad_generate|--generate Nowhere:100"
  "query_without_shape|--query nowhere.store"
  "query_mixed_with_input|--query nowhere.store --object 1 --generate Taxi:100"
  "query_flags_without_query|--object 3"
  "query_bad_window|--query nowhere.store --window 1,2,3"
  "query_at_without_object|--query nowhere.store --at 5"
  "query_bad_object|--object -1 --query nowhere.store"
  "query_with_engine_flags|--query nowhere.store --object 1 --threads 2"
  "query_with_no_verify|--query nowhere.store --object 1 --no-verify"
  "query_at_outside_range|--query nowhere.store --object 1 --from 0 --to 10 --at 500"
  # Mode exclusions: every flag outside its modes is a usage error.
  "connect_with_store_out|--connect 127.0.0.1:1 --store-out x.store"
  "connect_with_group_by_id|--connect 127.0.0.1:1 --group-by-id"
  "connect_with_plt|--connect 127.0.0.1:1 --plt x.plt"
  "connect_with_save_input|--connect 127.0.0.1:1 --save-input x.csv"
  "connect_with_no_verify|--connect 127.0.0.1:1 --no-verify"
  "connect_with_threads|--connect 127.0.0.1:1 --threads 2"
  "compact_with_output|--compact nowhere.store --output x.csv"
  "compact_with_metrics_out|--compact nowhere.store --metrics-out m.json"
  "query_with_compact|--query nowhere.store --compact nowhere.store"
  "stats_without_connect|--stats"
  "server_checkpoint_without_connect|--server-checkpoint x.ckpt"
  "plt_with_group_by_id|--group-by-id --plt x.plt"
  # Engine knobs are a contradiction in single-trajectory mode, not a
  # silent no-op.
  "single_with_threads|--threads 2"
  "single_with_shards|--shards 3"
  "single_with_objects|--generate Taxi:100 --objects 5"
  # Cross-flag rules.
  "store_shards_without_store_out|--store-shards 2"
  "checkpoint_every_without_checkpoint_out|--group-by-id --checkpoint-every 10"
  "metrics_every_without_metrics_out|--group-by-id --metrics-every 10"
  "metrics_every_without_group_by_id|--metrics-out m.json --metrics-every 10"
  "resume_with_clean|--group-by-id --resume x.ckpt --clean"
  "resume_with_store_out|--group-by-id --resume x.ckpt --store-out x.store"
  "input_with_generate|--input x.csv --generate Taxi:100"
  "connect_finish_objects_without_input|--connect 127.0.0.1:1 --finish-objects"
  "connect_with_input_and_generate|--connect 127.0.0.1:1 --input x.csv --generate Taxi:10"
  "connect_port_zero|--connect 127.0.0.1:0"
  "trailing_value_flag|--generate Taxi:100 --output"
)

foreach(case IN LISTS cases)
  string(FIND "${case}" "|" sep)
  string(SUBSTRING "${case}" 0 ${sep} label)
  math(EXPR arg_start "${sep} + 1")
  string(SUBSTRING "${case}" ${arg_start} -1 args)
  string(REPLACE " " ";" args "${args}")

  execute_process(
    COMMAND "${OPERB_CLI}" ${args}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)

  if(NOT result EQUAL 2)
    message(FATAL_ERROR
      "${label}: expected usage exit code 2, got '${result}'\n"
      "stdout: ${stdout}\nstderr: ${stderr}")
  endif()
  if(stderr STREQUAL "")
    message(FATAL_ERROR "${label}: no diagnostic on stderr")
  endif()
  if(stderr MATCHES "OPERB_CHECK")
    message(FATAL_ERROR
      "${label}: bad input reached a CHECK abort\nstderr: ${stderr}")
  endif()
endforeach()

# --help exits 0 and names every flag.
execute_process(
  COMMAND "${OPERB_CLI}" --help
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--help: expected exit 0, got '${result}'\n${stderr}")
endif()
foreach(flag
    --input --plt --generate --spec --algorithm --zeta --fidelity
    --group-by-id --threads --shards --objects
    --checkpoint-out --checkpoint-every --resume --store-out --store-shards
    --query --object --from --to --at --window --flat-scan --compact
    --output --save-input --clean --no-verify --metrics-out --metrics-every
    --connect --finish-objects --server-seal --server-checkpoint
    --server-metrics --stats --shutdown --help)
  if(NOT " ${stdout} " MATCHES "[^a-z-]${flag}[^a-z-]")
    message(FATAL_ERROR "--help does not name ${flag}\n${stdout}")
  endif()
endforeach()

# --store-out onto an existing regular file is refused and leaves the
# file byte-for-byte intact (a store is a directory; a mistyped output
# path must not cost the user their data).
file(MAKE_DIRECTORY "${WORK_DIR}")
set(keep "${WORK_DIR}/keep.csv")
file(WRITE "${keep}" "data\n")
execute_process(
  COMMAND "${OPERB_CLI}" --generate Taxi:100 --store-out "${keep}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(result EQUAL 0)
  message(FATAL_ERROR "store_out_over_file: expected a non-zero exit\n"
                      "stdout: ${stdout}\nstderr: ${stderr}")
endif()
if(IS_DIRECTORY "${keep}")
  message(FATAL_ERROR "store_out_over_file: ${keep} was replaced by a store")
endif()
file(READ "${keep}" kept)
if(NOT kept STREQUAL "data\n")
  message(FATAL_ERROR "store_out_over_file: ${keep} changed: '${kept}'")
endif()
if(stderr MATCHES "OPERB_CHECK")
  message(FATAL_ERROR "store_out_over_file: reached a CHECK abort\n${stderr}")
endif()

# Sanity: a *valid* spec still succeeds, so the harness above is not
# passing because everything fails.
execute_process(
  COMMAND "${OPERB_CLI}" --generate SerCar:300:2
          --spec operb-a:zeta=30,fidelity=guarded
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR
    "valid spec run failed (exit ${result})\n${stdout}\n${stderr}")
endif()

message(STATUS "operb_cli negative-path smoke passed")
