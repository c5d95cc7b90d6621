# Run one front-end command and check its exit status and output:
#
#   cmake -DEXPECT_RC=2 -DEXPECT_MATCH=<regex> [-DSQUAT=<path>]
#         -P expect_exit.cmake -- <program> <args...>
#
# SQUAT, when set, is created as a directory first, so a front end that
# tries to write a file there fails (a squatted artifact path).
set(cmd "")
set(seen_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator ON)
  endif()
endforeach()
if(DEFINED SQUAT)
  file(REMOVE_RECURSE "${SQUAT}")
  file(MAKE_DIRECTORY "${SQUAT}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(DEFINED SQUAT)
  file(REMOVE_RECURSE "${SQUAT}")
endif()
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_MATCH}")
  message(FATAL_ERROR "output does not match '${EXPECT_MATCH}':\n${out}${err}")
endif()
