# Runs a command line and passes only when it is refused as a usage error:
#
#   cmake -DEXIT=<code> -DMESSAGE=<text> -P expect_usage_error.cmake -- <cmd...>
#
# The command must exit with EXIT, print MESSAGE (a literal substring) on
# stderr and nothing on stdout: a refused command line runs no work.
set(cmd)
set(after_dashes FALSE)
foreach(i RANGE 1 ${CMAKE_ARGC})
  if(i EQUAL CMAKE_ARGC)
    break()
  endif()
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(FIND "${err}" "${MESSAGE}" at)
if(NOT rc STREQUAL "${EXIT}" OR at EQUAL -1 OR NOT out STREQUAL "")
  message(FATAL_ERROR "expected exit ${EXIT} with \"${MESSAGE}\" on stderr "
                      "and an empty stdout; got exit ${rc}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
