# Validates BENCH_perf.json, the append-only perf trajectory at the root
# of the repository, by schema and sanity only. Every row must carry a
# schema, a git rev, the host (nproc, build type, compiler), a known
# workload, a seed and a 16-hex-digit output digest; its end-to-end
# metrics (throughput_per_s, peak_rss_mb, setup_s) must be finite and
# positive and its per-layer metrics finite and non-negative, except
# trace.overhead (untraced / traced throughput - 1), which host noise can
# push below zero and which only has to be a number. Rows copied
# from a measured run carry per-layer metrics; rows marked
# "backfilled": true were taken from EXPERIMENTS.md medians and may carry
# none. No metric is compared with a threshold or with another row, so
# host noise cannot decide the outcome.
#
# Usage: cmake -DJSON=<path to BENCH_perf.json> -P check_bench_perf.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED JSON)
  message(FATAL_ERROR "pass -DJSON=<path to BENCH_perf.json>")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "missing ${JSON}")
endif()

file(READ "${JSON}" doc)
string(JSON nrows ERROR_VARIABLE err LENGTH "${doc}" rows)
if(err)
  message(FATAL_ERROR "cannot parse ${JSON}: ${err}")
endif()
if(nrows LESS 1)
  message(FATAL_ERROR "${JSON} has no rows")
endif()

# A JSON number cannot spell inf or nan, so a NUMBER is finite. These
# match unsigned numbers, and capture the mantissa for the nonzero test.
set(unsigned_re "^([0-9]+(\\.[0-9]*)?)([eE][-+]?[0-9]+)?$")

# Fails unless the value at keys ARGN under row ${i} is a non-empty
# string.
function(require_string label i)
  string(JOIN "." key ${ARGN})
  string(JSON type ERROR_VARIABLE err TYPE "${doc}" rows ${i} ${ARGN})
  if(err OR NOT type STREQUAL "STRING")
    message(FATAL_ERROR "row ${i} (${label}): \"${key}\" missing or not "
                        "a string")
  endif()
  string(JSON value GET "${doc}" rows ${i} ${ARGN})
  if(value STREQUAL "")
    message(FATAL_ERROR "row ${i} (${label}): \"${key}\" is empty")
  endif()
endfunction()

# Fails unless the value at keys ARGN under row ${i} is a number >= 0,
# or > 0 when `positive` is true; with `positive` SIGNED any number.
function(require_number label i positive)
  string(JOIN "." key ${ARGN})
  string(JSON type ERROR_VARIABLE err TYPE "${doc}" rows ${i} ${ARGN})
  if(err OR NOT type STREQUAL "NUMBER")
    message(FATAL_ERROR "row ${i} (${label}): \"${key}\" missing or not "
                        "a number")
  endif()
  if(positive STREQUAL "SIGNED")
    return()
  endif()
  string(JSON value GET "${doc}" rows ${i} ${ARGN})
  if(NOT value MATCHES "${unsigned_re}")
    message(FATAL_ERROR "row ${i} (${label}): \"${key}\"=${value} is "
                        "negative")
  endif()
  if(positive AND NOT CMAKE_MATCH_1 MATCHES "[1-9]")
    message(FATAL_ERROR "row ${i} (${label}): \"${key}\"=${value} is "
                        "not positive")
  endif()
endfunction()

set(workloads campaign_grid long_horizon fuzz_oracles)
set(end_to_end throughput_per_s peak_rss_mb setup_s)
math(EXPR last "${nrows} - 1")
foreach(i RANGE ${last})
  string(JSON workload ERROR_VARIABLE err GET "${doc}" rows ${i} workload)
  if(err OR NOT workload IN_LIST workloads)
    message(FATAL_ERROR "row ${i}: \"workload\" missing or not one of "
                        "${workloads}")
  endif()
  require_string(${workload} ${i} schema)
  require_string(${workload} ${i} rev)
  require_number(${workload} ${i} TRUE host nproc)
  require_string(${workload} ${i} host build_type)
  require_string(${workload} ${i} host compiler)
  require_number(${workload} ${i} FALSE seed)

  string(JSON digest ERROR_VARIABLE err GET "${doc}" rows ${i}
         output_digest)
  string(LENGTH "${digest}" digest_length)
  if(err OR NOT digest MATCHES "^[0-9a-f]+$" OR
     NOT digest_length EQUAL 16)
    message(FATAL_ERROR "row ${i} (${workload}): \"output_digest\" "
                        "missing or not 16 hex digits")
  endif()

  foreach(metric IN LISTS end_to_end)
    require_number(${workload} ${i} TRUE end_to_end ${metric})
  endforeach()

  set(backfilled OFF)
  string(JSON type ERROR_VARIABLE err TYPE "${doc}" rows ${i} backfilled)
  if(NOT err)
    if(NOT type STREQUAL "BOOLEAN")
      message(FATAL_ERROR "row ${i} (${workload}): \"backfilled\" must "
                          "be a boolean")
    endif()
    string(JSON backfilled GET "${doc}" rows ${i} backfilled)
  endif()
  string(JSON type ERROR_VARIABLE err TYPE "${doc}" rows ${i} per_layer)
  if(err OR NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "row ${i} (${workload}): \"per_layer\" missing or "
                        "not an object")
  endif()
  string(JSON nlayers LENGTH "${doc}" rows ${i} per_layer)
  if(nlayers EQUAL 0 AND NOT backfilled)
    message(FATAL_ERROR "row ${i} (${workload}): a measured row needs "
                        "per-layer metrics")
  endif()
  if(nlayers GREATER 0)
    math(EXPR last_layer "${nlayers} - 1")
    foreach(k RANGE ${last_layer})
      string(JSON name MEMBER "${doc}" rows ${i} per_layer ${k})
      if(name STREQUAL "trace.overhead")
        require_number(${workload} ${i} SIGNED per_layer ${name})
      else()
        require_number(${workload} ${i} FALSE per_layer ${name})
      endif()
    endforeach()
  endif()
  message(STATUS "row ${i}: ${workload} ok")
endforeach()
message(STATUS "${JSON}: ${nrows} row(s), every field present and sane")
