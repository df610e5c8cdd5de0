# Runs bts_profile with ARGS (which must include --metrics) and fails
# unless it exits 0, reports all JOBS jobs completed and none failed,
# and prints a measured peak of live ciphertext bytes equal to the
# analyzer's prediction.
# Usage: cmake -DBIN=<bts_profile> -DARGS=<a>|<b>|... -DJOBS=<n>
#              -P expect_metrics.cmake
# ARGS separates arguments with "|", as in expect_exit.cmake.
cmake_minimum_required(VERSION 3.24)

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${BIN} exited with '${rc}':\n${err}")
endif()
if(NOT out MATCHES "submitted ${JOBS}, completed ${JOBS}, failed 0\n")
    message(FATAL_ERROR "expected ${JOBS} jobs, all completed:\n${out}")
endif()
if(NOT out MATCHES "peak live bytes: measured ([0-9]+), predicted ([0-9]+)\n")
    message(FATAL_ERROR "no measured/predicted peak line:\n${out}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL CMAKE_MATCH_2)
    message(FATAL_ERROR "measured peak ${CMAKE_MATCH_1} bytes, predicted "
                        "${CMAKE_MATCH_2}:\n${out}")
endif()
