# Runs each paper-reproduction bench and compares its stdout byte for byte
# with the committed golden file of the same name. Their output is
# deterministic (fixed seeds, analytic costs and measured op counts), so
# any difference is a change to a printed table or figure.
#
#   cmake -DBENCH_DIR=<dir with the bench binaries>
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<scratch dir>
#         -P compare_bench_output.cmake
#
# A mismatch leaves the actual output in OUT_DIR for diffing. To accept an
# intended change, copy that file over the golden one.

set(cases
  "bench_table1"
  "bench_table2_pedagogical"
  "bench_fig8_exp1 10"
  "bench_fig9_exp2 2")

file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")
foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  list(GET argv 0 program)
  list(REMOVE_AT argv 0)
  string(REPLACE " " "_" name "${case}")
  execute_process(COMMAND "${BENCH_DIR}/${program}" ${argv}
                  OUTPUT_VARIABLE actual
                  RESULT_VARIABLE status)
  file(WRITE "${OUT_DIR}/${name}.txt" "${actual}")
  file(READ "${GOLDEN_DIR}/${name}.txt" expected)
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${case} exited with ${status}")
    list(APPEND failed "${case}")
  elseif(NOT actual STREQUAL expected)
    message(SEND_ERROR "${case}: stdout differs from the golden file; "
                       "diff ${GOLDEN_DIR}/${name}.txt ${OUT_DIR}/${name}.txt")
    list(APPEND failed "${case}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "golden output mismatch: ${failed}")
endif()
