# Runs BIN with ARGS and compares its stdout byte for byte with GOLDEN;
# on a mismatch the observed stdout is written to ACTUAL for diffing.
# Usage: cmake -DBIN=<exe> [-DARGS=<a>|<b>|...] -DGOLDEN=<file>
#              -DACTUAL=<file> -P compare.cmake
# ARGS separates arguments with "|" (a ";" list would split on the
# cmake command line).
cmake_minimum_required(VERSION 3.24)

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
    file(WRITE "${ACTUAL}" "${out}")
    message(FATAL_ERROR
        "stdout of ${BIN} differs from ${GOLDEN}; observed output is in "
        "${ACTUAL}. If the change is intended, copy it over the golden "
        "file and explain the shift in the commit.")
endif()
