# Writes the build stamp's commit into OUT as a one-line header:
#
#   cmake -DSOURCE_DIR=<tree> -DOUT=<header> -P git_sha.cmake
#
# The commit is `git rev-parse --short=12 HEAD` of SOURCE_DIR, with
# "-dirty" appended when tracked files differ from HEAD, or "unknown"
# outside a git checkout. OUT is rewritten only when its content changes,
# so an unchanged commit recompiles nothing and a new one recompiles only
# build_info.cpp.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
else()
  execute_process(
    COMMAND git diff --quiet HEAD --
    WORKING_DIRECTORY ${SOURCE_DIR}
    ERROR_QUIET
    RESULT_VARIABLE dirty)
  if(dirty EQUAL 1)
    string(APPEND sha "-dirty")
  endif()
endif()

set(content "#define UCP_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()
