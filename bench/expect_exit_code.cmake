# Runs a command and asserts the EXACT exit code — ctest's WILL_FAIL can
# only assert "nonzero", but several of our contracts distinguish codes:
# the schema checker's exit 1 (schema violation) vs exit 3 (artifact
# written by a newer bench build), and the CLI's exit 2 (usage error,
# e.g. a malformed numeric flag).
#
# Usage:
#   cmake -DCHECKER=<path> -DARTIFACT=<path> -DEXPECTED=<code> \
#         -P expect_exit_code.cmake
#   cmake -DCHECKER=<path> "-DARGS=arg1;arg2;..." -DEXPECTED=<code> \
#         -P expect_exit_code.cmake
#
# ARTIFACT is the original single-argument form; ARGS is a CMake list of
# arbitrary arguments (escape the semicolons in add_test: "-DARGS=a\;b").

if(NOT DEFINED CHECKER OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR
    "expect_exit_code.cmake needs -DCHECKER and -DEXPECTED")
endif()
if(NOT DEFINED ARGS)
  if(NOT DEFINED ARTIFACT)
    message(FATAL_ERROR
      "expect_exit_code.cmake needs -DARTIFACT or -DARGS")
  endif()
  set(ARGS ${ARTIFACT})
endif()
# add_test hands the escaped separators over verbatim ("a\;b"), which an
# unquoted ${ARGS} would pass on as ONE argument "a;b": unescape them so
# each list element reaches the command as its own argument.
string(REPLACE "\\;" ";" ARGS "${ARGS}")

execute_process(
  COMMAND ${CHECKER} ${ARGS}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT result EQUAL ${EXPECTED})
  message(FATAL_ERROR
    "expected exit ${EXPECTED} from ${CHECKER} ${ARGS}, got "
    "'${result}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
