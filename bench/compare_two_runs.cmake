# Runs one bench twice in WORKDIR and requires `check_bench_json
# --compare-tables` to find the two BENCH_<ID>.json tables identical: the
# tables of one build are a function of the code alone, wall-clock columns
# aside.
#
#   cmake -DBENCH=<bench> -DCHECKER=<check_bench_json> -DID=<E16>
#         -DWORKDIR=<dir> -P compare_two_runs.cmake
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
foreach(run first second)
  execute_process(COMMAND ${BENCH} WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code OUTPUT_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${BENCH} (${run} run) exited ${code}")
  endif()
  file(RENAME ${WORKDIR}/BENCH_${ID}.json ${WORKDIR}/${run}.json)
endforeach()
execute_process(COMMAND ${CHECKER} --compare-tables ${WORKDIR}/first.json
                        ${WORKDIR}/second.json
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "the two ${ID} tables differ")
endif()
