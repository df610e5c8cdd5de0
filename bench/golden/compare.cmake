# Runs BIN and compares its stdout byte for byte with GOLDEN; on a
# mismatch the observed stdout is written to ACTUAL for diffing.
# Usage: cmake -DBIN=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
cmake_minimum_required(VERSION 3.24)

execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
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
