# End-to-end check of `mmdiag_cli diagnose --batch`: generate four
# syndromes over two specs, diagnose the directory on two lanes, and require
# exit 0 with every reported fault list equal to its .truth sidecar.
#
#   cmake -DCLI=<mmdiag_cli> -DWORK_DIR=<scratch dir> -P cli_batch_test.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# name | spec | fault count | seed
set(cases
  "a.syn|hypercube 7|5|1"
  "b.syn|star 5|3|2"
  "c.syn|hypercube 7|0|3"
  "d.syn|star 5|2|4")

set(names "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 name)
  list(GET fields 1 spec)
  list(GET fields 2 faults)
  list(GET fields 3 seed)
  separate_arguments(spec_args UNIX_COMMAND "${spec}")
  execute_process(
    COMMAND "${CLI}" generate ${spec_args} --faults ${faults} --seed ${seed}
            -o "${WORK_DIR}/${name}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "generate ${name} failed (${rc}): ${out}${err}")
  endif()
  list(APPEND names "${name}")
endforeach()

execute_process(
  COMMAND "${CLI}" diagnose --batch "${WORK_DIR}" --threads 2
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "diagnose --batch exited ${rc}: ${err}")
endif()
if(NOT out MATCHES "batch total: 4/4 diagnosed")
  message(FATAL_ERROR "batch total line missing or short: ${out}")
endif()

foreach(name IN LISTS names)
  file(READ "${WORK_DIR}/${name}.truth" truth)
  string(STRIP "${truth}" truth)
  string(REGEX MATCH "  ${name}: [0-9]+ fault\\(s\\)[ 0-9]*" line "${out}")
  if(NOT line)
    message(FATAL_ERROR "no result line for ${name}")
  endif()
  string(REGEX REPLACE "^  ${name}: [0-9]+ fault\\(s\\) ?" "" reported "${line}")
  string(STRIP "${reported}" reported)
  if(NOT reported STREQUAL truth)
    message(FATAL_ERROR "${name}: reported '${reported}', truth '${truth}'")
  endif()
endforeach()
