# Golden regeneration check, run via `cmake -P` from ctest: make_golden
# writes a fresh fixture set into WORK_DIR, which must hold exactly the
# files of GOLDEN_DIR (tests/golden/), each byte-identical. Guards the
# generator itself — the suites only read the committed fixtures.
#
# Usage: cmake -DMAKE_GOLDEN=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#              -P RunMakeGolden.cmake

foreach(var MAKE_GOLDEN GOLDEN_DIR WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "RunMakeGolden.cmake: ${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${MAKE_GOLDEN}" "${WORK_DIR}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "make_golden exited with ${result}\n${output}")
endif()

file(GLOB want RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/*.csv")
file(GLOB got RELATIVE "${WORK_DIR}" "${WORK_DIR}/*.csv")
list(SORT want)
list(SORT got)
if(NOT want STREQUAL got)
  message(FATAL_ERROR "make_golden wrote {${got}}, tests/golden holds {${want}}")
endif()
list(LENGTH want count)
if(count EQUAL 0)
  message(FATAL_ERROR "no fixtures under ${GOLDEN_DIR}")
endif()
foreach(name IN LISTS want)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${GOLDEN_DIR}/${name}" "${WORK_DIR}/${name}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "regenerated ${name} differs from ${GOLDEN_DIR}/${name}")
  endif()
endforeach()
message(STATUS "make_golden reproduces all ${count} fixtures byte-for-byte")
