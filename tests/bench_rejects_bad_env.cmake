# A figure bench with a malformed SCI_SCALE must refuse to run: exit 2,
# name the variable and the value on stderr, and simulate nothing (the
# "[setup] simulating" line never appears).
#
#   cmake -DBENCH=<fig09_cpu_contention exe> -P bench_rejects_bad_env.cmake

execute_process(COMMAND "${CMAKE_COMMAND}" -E env SCI_SCALE=fast "${BENCH}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE log)

if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${rc}'\n${out}\n${log}")
endif()
if(NOT log MATCHES "SCI_SCALE: expected a number, got 'fast'")
  message(FATAL_ERROR "the error does not name SCI_SCALE and its value:\n${log}")
endif()
if(out MATCHES "\\[setup\\] simulating")
  message(FATAL_ERROR "the bench simulated before rejecting SCI_SCALE:\n${out}")
endif()
