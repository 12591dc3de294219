# End-to-end smoke test for operb_cli, run via `cmake -P` from ctest.
# Expects -DOPERB_CLI=<path to binary> and -DWORK_DIR=<scratch dir>.
#
# Step 1: synthesize a trajectory, simplify with OPERB-A, save the input
#         as CSV and verify the bound.
# Step 2: re-read that CSV, simplify with plain OPERB at a different zeta,
#         write the representation CSV and verify again.
# Step 3: dirty that CSV (duplicate and stale rows), run it with --clean;
#         the printed error max is measured against the cleaned stream
#         the segments index, so it must be <= zeta too.
# Every step must exit 0 and print a "bound: verified" line.

if(NOT OPERB_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DOPERB_CLI=... -DWORK_DIR=... -P RunCliSmoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(input_csv "${WORK_DIR}/smoke_input.csv")
set(repr_csv "${WORK_DIR}/smoke_repr.csv")

function(check_step LABEL RESULT OUTPUT)
  if(NOT RESULT EQUAL 0)
    message(FATAL_ERROR "${LABEL}: exit code ${RESULT}\n${OUTPUT}")
  endif()
  if(NOT OUTPUT MATCHES "bound:     verified")
    message(FATAL_ERROR "${LABEL}: no bound verification in output\n${OUTPUT}")
  endif()
endfunction()

execute_process(
  COMMAND "${OPERB_CLI}" --generate SerCar:800:7 --algorithm OPERB-A
          --zeta 30 --save-input "${input_csv}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
check_step("step 1 (generate + OPERB-A)" "${result}" "${output}")

if(NOT EXISTS "${input_csv}")
  message(FATAL_ERROR "step 1 did not write ${input_csv}")
endif()

execute_process(
  COMMAND "${OPERB_CLI}" --input "${input_csv}" --algorithm OPERB
          --zeta 25 --output "${repr_csv}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
check_step("step 2 (CSV round-trip + OPERB)" "${result}" "${output}")

if(NOT EXISTS "${repr_csv}")
  message(FATAL_ERROR "step 2 did not write ${repr_csv}")
endif()

file(STRINGS "${input_csv}" rows)
set(dirty_rows "")
set(index 0)
set(previous "")
foreach(row IN LISTS rows)
  list(APPEND dirty_rows "${row}")
  if(NOT row MATCHES "^#")
    math(EXPR dup "${index} % 13")
    math(EXPR stale "${index} % 31")
    if(dup EQUAL 5)
      list(APPEND dirty_rows "${row}")  # duplicate sample
    endif()
    if(stale EQUAL 7 AND NOT previous STREQUAL "")
      list(APPEND dirty_rows "${previous}")  # stale (out-of-order) sample
    endif()
    set(previous "${row}")
    math(EXPR index "${index} + 1")
  endif()
endforeach()
list(JOIN dirty_rows "\n" dirty_content)
set(dirty_csv "${WORK_DIR}/smoke_dirty.csv")
file(WRITE "${dirty_csv}" "${dirty_content}\n")

execute_process(
  COMMAND "${OPERB_CLI}" --input "${dirty_csv}" --clean
          --spec operb:zeta=10
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
check_step("step 3 (dirty CSV + --clean)" "${result}" "${output}")
if(NOT output MATCHES "cleaned:   kept [0-9]+ of [0-9]+ \\(([1-9][0-9]*) duplicate")
  message(FATAL_ERROR "step 3: the dirty CSV lost nothing to --clean\n${output}")
endif()
if(NOT output MATCHES "error:     avg [0-9.]+ m, max ([0-9.]+) m")
  message(FATAL_ERROR "step 3: no error line in output\n${output}")
endif()
set(max_error "${CMAKE_MATCH_1}")
if(max_error GREATER 10)
  message(FATAL_ERROR
    "step 3: error max ${max_error} m exceeds zeta 10 m — measured "
    "against the raw input instead of the cleaned stream?\n${output}")
endif()

message(STATUS "operb_cli smoke passed")
