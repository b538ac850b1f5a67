# Runs one fluidfaas CLI invocation and checks its exit contract.
#
#   cmake -DEXPECT_EXIT=<code> [-DEXPECT_STDERR=<regex>]
#         -P cli_exit_test.cmake -- <fluidfaas> <args...>
#
# Fails unless the process exits with EXPECT_EXIT. Exit status 1 means an
# error, which the CLI must report on stderr as `error: …`. With
# EXPECT_STDERR, stderr must also match that regex.
set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${cmd} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
list(JOIN cmd " " shown)
if(NOT "${code}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${shown}\nexited ${code}, expected ${EXPECT_EXIT}\n"
                      "stderr: ${err}")
endif()
if(code EQUAL 1 AND NOT err MATCHES "^error:")
  message(FATAL_ERROR "${shown}\nstderr does not start with 'error:':\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${shown}\nstderr does not match '${EXPECT_STDERR}':\n"
                      "${err}")
endif()
