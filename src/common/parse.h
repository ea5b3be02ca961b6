#ifndef PCPDA_COMMON_PARSE_H_
#define PCPDA_COMMON_PARSE_H_

#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"
#include "common/types.h"

namespace pcpda {

/// Strict numeric parsing for CLI flags and environment variables.
///
/// The bare std::atoi / std::strtoll idiom the example binaries used to
/// share silently maps garbage ("abc"), overflow ("99999999999999999999")
/// and stray suffixes ("10x") to 0 or a clamped value — a sweep invoked
/// with a typo'd --horizon runs with horizon 0 and reports success. These
/// helpers accept exactly one full base-10 number (optional sign,
/// surrounding whitespace rejected) inside the caller's range and return
/// InvalidArgument for everything else, with the offending text quoted.

/// Parses `text` as an integer in [min, max].
StatusOr<std::int64_t> ParseInt64(
    const std::string& text,
    std::int64_t min = std::numeric_limits<std::int64_t>::min(),
    std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// Parses `text` as an unsigned integer in [0, max]. A leading '-' is
/// rejected (strtoull would silently wrap it).
StatusOr<std::uint64_t> ParseUInt64(
    const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Parses `text` as a finite double in [min, max].
StatusOr<double> ParseDouble(const std::string& text, double min,
                             double max);

/// Parses a simulation tick count in [min, max] (ticks are int64).
StatusOr<Tick> ParseTick(
    const std::string& text, Tick min = 0,
    Tick max = std::numeric_limits<Tick>::max());

/// CLI wrappers: on failure print "<flag>: <error>" to stderr and return
/// false — the caller shows usage and exits with code 2. `flag` is the
/// flag name as spelled on the command line (e.g. "--jobs").
bool ParseFlagInt64(const char* flag, const std::string& value,
                    std::int64_t min, std::int64_t max, std::int64_t* out);
bool ParseFlagUInt64(const char* flag, const std::string& value,
                     std::uint64_t max, std::uint64_t* out);
bool ParseFlagDouble(const char* flag, const std::string& value, double min,
                     double max, double* out);
bool ParseFlagInt(const char* flag, const std::string& value, int min,
                  int max, int* out);

/// Matches `arg` against "<name>=<value>": on a match points `value` at
/// the text after '=' and returns true.
bool ParseFlag(const char* arg, const char* name, const char** value);

/// Worker-count environment variable (e.g. PCPDA_JOBS): unset or empty
/// yields `fallback`; an integer in [1, 1024] is used as-is; anything
/// else (garbage or out of range) warns once on stderr and yields
/// `fallback`. Never fails — an env var travels with the shell session,
/// so a typo should degrade a bench run to serial, not kill it.
int JobsFromEnv(const char* name, int fallback);

}  // namespace pcpda

#endif  // PCPDA_COMMON_PARSE_H_
