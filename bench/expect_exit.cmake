# Runs HARNESS with ARGS and fails unless it exits with EXPECT_CODE and,
# when given, its stdout/stderr match EXPECT_STDOUT/EXPECT_STDERR (regex).
#
#   cmake -DHARNESS=path -DARGS=--quik -DEXPECT_CODE=2 \
#         "-DEXPECT_STDERR=unknown flag" -P expect_exit.cmake
execute_process(COMMAND ${HARNESS} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "${HARNESS} ${ARGS}: exit ${code}, expected "
                      "${EXPECT_CODE}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}':\n${out}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
