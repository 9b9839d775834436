# One rejected-run contract case: run the command in an empty <DIR> and
# pass only if it exits 2 with <EXPECT> on stderr, prints nothing on
# stdout and writes no file -- the workload never ran. With
# -DPROFILE_CELLS=<n>, <DIR>/profile.txt first holds a well-formed
# cell-rate profile of n cells for the command to read.
#
#   cmake -DDIR=<dir> -DEXPECT=<text> [-DPROFILE_CELLS=<n>]
#         -P rejected_run.cmake -- <command...>
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
if(DEFINED PROFILE_CELLS)
  set(profile "# steelnet cell-rate profile v1\ncell,events,msgs\n")
  math(EXPR top "${PROFILE_CELLS} - 1")
  foreach(c RANGE ${top})
    string(APPEND profile "cell${c},100,0\n")
  endforeach()
  file(WRITE "${DIR}/profile.txt" "${profile}")
endif()
execute_process(COMMAND ${cmd} WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(GLOB written "${DIR}/*")
list(REMOVE_ITEM written "${DIR}/profile.txt")
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exited with '${rc}', not 2:${shown}\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not say '${EXPECT}':\n${err}")
endif()
if(NOT out STREQUAL "" OR written)
  message(FATAL_ERROR "the workload ran: stdout '${out}', files '${written}'")
endif()
