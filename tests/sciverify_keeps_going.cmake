# sciverify over a directory holding a scenario that fails to load
# (a_broken.scn, which sorts first) and a copy of steady_state.scn: the
# broken scenario must become a failed verdict carrying its error text, the
# good one must still run and pass, the JSON summary must be printed, and
# the exit code must be 1.
#
#   cmake -DSCIVERIFY=<exe> -DBROKEN=<a_broken.scn> -DGOOD=<steady_state.scn>
#         -DWORK_DIR=<scratch dir> -P sciverify_keeps_going.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(COPY "${BROKEN}" "${GOOD}" DESTINATION "${WORK_DIR}")
execute_process(COMMAND "${SCIVERIFY}" "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE json
                ERROR_VARIABLE log)
file(REMOVE_RECURSE "${WORK_DIR}")

if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got '${rc}'\n${log}")
endif()
if(NOT json MATCHES "\"name\": \"a_broken\",\n      \"passed\": false,\n      \"error\": \"[^\"]*scale: expected a number, got 'abc'\"")
  message(FATAL_ERROR "a_broken is not a failed verdict with its error:\n${json}")
endif()
if(NOT json MATCHES "\"name\": \"steady_state\",\n      \"passed\": true,\n      \"error\": \"\"")
  message(FATAL_ERROR "steady_state did not run and pass after a_broken:\n${json}\n${log}")
endif()
if(NOT json MATCHES "^{\n  \"passed\": false,")
  message(FATAL_ERROR "the summary does not report the failure:\n${json}")
endif()
