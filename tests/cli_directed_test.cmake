# End-to-end check of `mmdiag_cli diagnose` on directed syndrome files: for
# PMC and BGM, generate a syndrome, require the global diagnosis to equal
# the .truth sidecar, and (BGM) require `--local N` to call one faulty and
# one healthy node as the sidecar says.
#
#   cmake -DCLI=<mmdiag_cli> -DWORK_DIR=<scratch dir> -P cli_directed_test.cmake

if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli out_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mmdiag_cli ${ARGN} exited ${rc}: ${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(model IN ITEMS pmc bgm)
  set(file "${WORK_DIR}/${model}.syn")
  run_cli(ignored generate hypercube 7 --faults 5 --seed 3 --model ${model}
          -o "${file}")
  file(READ "${file}.truth" truth)
  string(STRIP "${truth}" truth)

  run_cli(out diagnose "${file}")
  message("${out}")
  if(NOT out MATCHES "model ${model}")
    message(FATAL_ERROR "${model}: loaded line does not name the model")
  endif()
  string(REGEX MATCHALL "\n  [0-9]+  " lines "${out}")
  set(reported "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "[^0-9]" "" id "${line}")
    list(APPEND reported "${id}")
  endforeach()
  list(JOIN reported " " reported)
  if(NOT reported STREQUAL truth)
    message(FATAL_ERROR "${model}: reported '${reported}', truth '${truth}'")
  endif()

  if(model STREQUAL "bgm")
    string(REPLACE " " ";" faulty "${truth}")
    list(GET faulty 0 faulty_node)
    set(healthy_node 0)
    while(healthy_node IN_LIST faulty)
      math(EXPR healthy_node "${healthy_node} + 1")
    endwhile()
    run_cli(out diagnose "${file}" --local ${faulty_node})
    if(NOT out MATCHES "node ${faulty_node}: FAULTY")
      message(FATAL_ERROR "--local ${faulty_node} should be FAULTY: ${out}")
    endif()
    run_cli(out diagnose "${file}" --local ${healthy_node})
    if(NOT out MATCHES "node ${healthy_node}: healthy")
      message(FATAL_ERROR "--local ${healthy_node} should be healthy: ${out}")
    endif()
  endif()
endforeach()
