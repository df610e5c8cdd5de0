# Runs BIN with ARGS and fails unless it exits with exactly CODE (an
# abort or any other exit code fails).
# Usage: cmake -DBIN=<exe> [-DARGS=<a>|<b>|...] -DCODE=<n>
#              -P expect_exit.cmake
# ARGS separates arguments with "|", as in bench/golden/compare.cmake.
cmake_minimum_required(VERSION 3.24)

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${CODE}")
    message(FATAL_ERROR "${BIN} exited with '${rc}', expected ${CODE}:\n${err}")
endif()
