# One rejected-flag contract case: run the command in an empty <DIR> and
# pass only if it exits 2 naming <FLAG> as an unknown argument on stderr,
# prints nothing on stdout and writes no file -- the workload never ran.
#
#   cmake -DDIR=<dir> -DFLAG=<flag> -P rejected_flag.cmake -- <command...>
cmake_minimum_required(VERSION 3.16)

math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(past_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
    string(APPEND shown " ${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(past_dashes TRUE)
  endif()
endforeach()

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND ${cmd} WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(GLOB written "${DIR}/*")
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exited with '${rc}', not 2:${shown}\n${err}")
endif()
string(FIND "${err}" "unknown argument '${FLAG}' (try --help)" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not reject ${FLAG}:\n${err}")
endif()
if(NOT out STREQUAL "" OR written)
  message(FATAL_ERROR "the workload ran: stdout '${out}', files '${written}'")
endif()
