# Negative-path smoke test for operb_server's flags, run via `cmake -P`
# from ctest. Expects -DOPERB_SERVER=<daemon binary> and -DWORK_DIR=<scratch
# dir>.
#
# Every malformed invocation must exit with the usage code (2), print a
# diagnostic on stderr, and never reach a CHECK abort. A case that
# wrongly starts the daemon is killed by the timeout and fails.

if(NOT OPERB_SERVER OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DOPERB_SERVER=... -DWORK_DIR=... -P RunServerNegative.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(store "${WORK_DIR}/store")

# Each case: a label, then the space-separated argument list (no argument
# contains a space).
set(cases
  "no_store|--port 0"
  "store_without_value|--store"
  "port_out_of_range|--store ${store} --port 65536"
  "zero_threads|--store ${store} --threads 0"
  "zero_ring_capacity|--store ${store} --ring-capacity 0"
  "negative_seal_interval|--store ${store} --seal-interval -1"
  "nan_seal_interval|--store ${store} --seal-interval nan"
  "malformed_seal_interval|--store ${store} --seal-interval abc"
  "unknown_flag|--store ${store} --wibble"
)

foreach(case IN LISTS cases)
  string(FIND "${case}" "|" sep)
  string(SUBSTRING "${case}" 0 ${sep} label)
  math(EXPR arg_start "${sep} + 1")
  string(SUBSTRING "${case}" ${arg_start} -1 args)
  string(REPLACE " " ";" args "${args}")

  execute_process(
    COMMAND "${OPERB_SERVER}" ${args}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    TIMEOUT 20)

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
  COMMAND "${OPERB_SERVER}" --help
  RESULT_VARIABLE result
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr
  TIMEOUT 20)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "--help: expected exit 0, got '${result}'\n${stderr}")
endif()
foreach(flag
    --store --port --port-file --spec --threads --shards --store-shards
    --ring-capacity --seal-interval --checkpoint-out --metrics-out --help)
  if(NOT " ${stdout} " MATCHES "[^a-z-]${flag}[^a-z-]")
    message(FATAL_ERROR "--help does not name ${flag}\n${stdout}")
  endif()
endforeach()

message(STATUS "operb_server negative-path smoke passed")
