# Runs each paper-reproduction bench, and each example whose output is
# pinned, and compares its stdout byte for byte with the committed golden
# file of the same name. Their output is deterministic (fixed seeds,
# analytic costs and measured op counts), so any difference is a change
# to a printed table, figure or example run.
#
#   cmake -DBENCH_DIR=<dir with the bench binaries>
#         -DEXAMPLES_DIR=<dir with the example binaries>
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<scratch dir>
#         -P compare_bench_output.cmake
#
# A mismatch leaves the actual output in OUT_DIR for diffing. To accept an
# intended change, copy that file over the golden one.

set(cases
  "${BENCH_DIR}/bench_table1"
  "${BENCH_DIR}/bench_table2_pedagogical"
  "${BENCH_DIR}/bench_fig8_exp1 10"
  "${BENCH_DIR}/bench_fig9_exp2 2"
  "${EXAMPLES_DIR}/adaptive_reconfig")

file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")
foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  list(GET argv 0 program)
  list(REMOVE_AT argv 0)
  get_filename_component(name "${program}" NAME)
  foreach(arg IN LISTS argv)
    string(APPEND name "_${arg}")
  endforeach()
  execute_process(COMMAND "${program}" ${argv}
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
