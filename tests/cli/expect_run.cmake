# Runs `EXE PROGRAM --intended INTENDED [--assert UNIT EXPR] -- INPUT` and
# checks its exit code against EXIT and its combined stdout and stderr
# against the regex MATCH:
#
#   cmake -DEXE=... -DPROGRAM=... -DINTENDED=... -DINPUT=... -DEXIT=1 \
#         -DMATCH=... [-DASSERT_UNIT=... -DASSERT_EXPR=...] \
#         -P expect_run.cmake
set(Assert)
if(DEFINED ASSERT_EXPR)
  set(Assert --assert ${ASSERT_UNIT} "${ASSERT_EXPR}")
endif()
execute_process(
  COMMAND ${EXE} ${PROGRAM} --intended ${INTENDED} ${Assert} -- ${INPUT}
  RESULT_VARIABLE Code
  OUTPUT_VARIABLE Out
  ERROR_VARIABLE Err)
if(NOT Code STREQUAL EXIT)
  message(FATAL_ERROR "exit status ${Code}, expected ${EXIT}:\n${Out}${Err}")
endif()
if(NOT "${Out}${Err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${Out}${Err}")
endif()
