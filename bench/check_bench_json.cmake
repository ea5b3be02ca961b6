# Validates BENCH_engine.json (written by bench_engine_perf) by schema and
# sanity only: the file must parse as JSON, carry a boolean "smoke" flag
# and at least one row, and every row must name its protocol and carry
# every numeric field as a finite, positive number. Timing ratios such as
# compiled_speedup are deliberately not compared against a threshold:
# the two arms differ only in set-up, so the ratio sits near 1.0 and its
# side of 1.0 is decided by host noise, which would make the gate flaky.
#
# Usage: cmake -DJSON=<path to BENCH_engine.json> -P check_bench_json.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED JSON)
  message(FATAL_ERROR "pass -DJSON=<path to BENCH_engine.json>")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "missing ${JSON} (run bench_engine_perf first)")
endif()

file(READ "${JSON}" doc)
string(JSON nrows ERROR_VARIABLE err LENGTH "${doc}" rows)
if(err)
  message(FATAL_ERROR "cannot parse ${JSON}: ${err}")
endif()
if(nrows LESS 1)
  message(FATAL_ERROR "${JSON} has no rows")
endif()
string(JSON smoke_type ERROR_VARIABLE err TYPE "${doc}" smoke)
if(err OR NOT smoke_type STREQUAL "BOOLEAN")
  message(FATAL_ERROR "${JSON}: \"smoke\" must be a boolean")
endif()

set(numeric_fields horizon ticks_per_sec ns_per_lock_decision
                   compiled_speedup)
math(EXPR last "${nrows} - 1")
foreach(i RANGE ${last})
  string(JSON proto ERROR_VARIABLE err GET "${doc}" rows ${i} protocol)
  if(err OR proto STREQUAL "")
    message(FATAL_ERROR "row ${i}: missing or empty \"protocol\"")
  endif()
  foreach(field IN LISTS numeric_fields)
    string(JSON type ERROR_VARIABLE err TYPE "${doc}" rows ${i} ${field})
    if(err OR NOT type STREQUAL "NUMBER")
      message(FATAL_ERROR "row ${i} (${proto}): \"${field}\" missing or "
                          "not a number")
    endif()
    string(JSON value GET "${doc}" rows ${i} ${field})
    # A JSON number cannot spell inf or nan, so finite holds once the
    # type is NUMBER. Positive: no sign, and a nonzero mantissa digit.
    if(NOT value MATCHES "^([0-9]+(\\.[0-9]*)?)([eE][-+]?[0-9]+)?$" OR
       NOT CMAKE_MATCH_1 MATCHES "[1-9]")
      message(FATAL_ERROR "row ${i} (${proto}): \"${field}\"=${value} is "
                          "not a positive number")
    endif()
  endforeach()
  message(STATUS "row ${i}: ${proto} ok")
endforeach()
message(STATUS "${JSON}: ${nrows} row(s), every field present and positive")
