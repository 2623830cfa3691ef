# sciverify and scisim with a malformed SCI_THREADS must refuse to run:
# exit 2 and name the variable on stderr before any scenario or
# simulation starts (no "running" or "simulating" line, and sciverify
# prints no JSON summary).
#
#   cmake -DSCIVERIFY=<exe> -DSCISIM=<exe> -DGOOD=<steady_state.scn>
#         -DWORK_DIR=<work dir> -P tools_reject_bad_threads.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(COPY "${GOOD}" DESTINATION "${WORK_DIR}")
get_filename_component(scenario "${GOOD}" NAME)

execute_process(COMMAND "${CMAKE_COMMAND}" -E env SCI_THREADS=4x
                        "${SCIVERIFY}" "${WORK_DIR}/${scenario}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE verify_rc
                OUTPUT_VARIABLE verify_out
                ERROR_VARIABLE verify_log)
execute_process(COMMAND "${CMAKE_COMMAND}" -E env SCI_THREADS=4x
                        "${SCISIM}" report --scale 0.02
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE sim_rc
                OUTPUT_VARIABLE sim_out
                ERROR_VARIABLE sim_log)
file(REMOVE_RECURSE "${WORK_DIR}")

if(NOT verify_rc EQUAL 2)
  message(FATAL_ERROR "sciverify: expected exit code 2, got '${verify_rc}'\n${verify_out}\n${verify_log}")
endif()
if(NOT verify_log MATCHES "SCI_THREADS: expected a non-negative integer, got '4x'")
  message(FATAL_ERROR "sciverify: the error does not name SCI_THREADS and its value:\n${verify_log}")
endif()
if(verify_log MATCHES "running ")
  message(FATAL_ERROR "sciverify ran a scenario before rejecting SCI_THREADS:\n${verify_log}")
endif()
if(NOT verify_out STREQUAL "")
  message(FATAL_ERROR "sciverify printed a summary before rejecting SCI_THREADS:\n${verify_out}")
endif()

if(NOT sim_rc EQUAL 2)
  message(FATAL_ERROR "scisim: expected exit code 2, got '${sim_rc}'\n${sim_out}\n${sim_log}")
endif()
if(NOT sim_log MATCHES "SCI_THREADS: expected a non-negative integer, got '4x'")
  message(FATAL_ERROR "scisim: the error does not name SCI_THREADS and its value:\n${sim_log}")
endif()
if(sim_out MATCHES "simulating")
  message(FATAL_ERROR "scisim simulated before rejecting SCI_THREADS:\n${sim_out}")
endif()
