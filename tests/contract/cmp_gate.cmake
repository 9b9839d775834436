# One determinism-contract case: run command A in <DIR>/a/ and command B
# in <DIR>/b/, stdout captured to <STDOUT> in each. Fails if either exits
# non-zero, if a named output is missing, or if any named file (stdout
# included) differs between the sides. Names are the same on both sides,
# so B can read what A wrote as ../a/<name>. Without --vs only A runs.
#
#   cmake -DDIR=<dir> -DSTDOUT=<name> [-DFILES=<name;...>]
#         -P cmp_gate.cmake -- <command A...> [--vs <command B...>]
cmake_minimum_required(VERSION 3.16)

set(side a)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(arg STREQUAL "--vs")
    set(side b)
  elseif(past_dashes)
    list(APPEND cmd_${side} "${arg}")
    string(APPEND shown_${side} " ${arg}")
  elseif(arg STREQUAL "--")
    set(past_dashes TRUE)
  endif()
endforeach()

foreach(s a b)
  if(NOT cmd_${s})
    continue()
  endif()
  # Start clean: an output left over from an earlier run must not count.
  file(REMOVE_RECURSE "${DIR}/${s}")
  file(MAKE_DIRECTORY "${DIR}/${s}")
  execute_process(COMMAND ${cmd_${s}} WORKING_DIRECTORY "${DIR}/${s}"
    OUTPUT_FILE "${DIR}/${s}/${STDOUT}" RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "side ${s} exited with '${rc}':${shown_${s}}")
  endif()
  foreach(f IN LISTS FILES)
    if(NOT EXISTS "${DIR}/${s}/${f}")
      message(FATAL_ERROR "side ${s} did not write ${f}:${shown_${s}}")
    endif()
  endforeach()
endforeach()

if(cmd_b)
  foreach(f IN LISTS STDOUT FILES)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
      "${DIR}/a/${f}" "${DIR}/b/${f}" RESULT_VARIABLE rc)
    if(NOT rc STREQUAL "0")
      message(FATAL_ERROR "${f} differs between A and B:\n"
        "  A:${shown_a}\n  B:${shown_b}\n  (see ${DIR}/{a,b}/${f})")
    endif()
  endforeach()
endif()
