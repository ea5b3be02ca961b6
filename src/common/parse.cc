#include "common/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/strings.h"

namespace pcpda {
namespace {

bool LooksNumeric(const std::string& text, bool allow_minus) {
  if (text.empty()) return false;
  std::size_t i = 0;
  if (text[0] == '+' || (allow_minus && text[0] == '-')) i = 1;
  if (i >= text.size()) return false;
  for (; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) return false;
  }
  return true;
}

Status NotANumber(const std::string& text) {
  return Status::InvalidArgument("'" + text + "' is not a number");
}

Status OutOfRange(const std::string& text, const std::string& range) {
  return Status::InvalidArgument("'" + text + "' is out of range " + range);
}

std::string RangeInt(std::int64_t min, std::int64_t max) {
  return StrFormat("[%lld, %lld]", static_cast<long long>(min),
                   static_cast<long long>(max));
}

}  // namespace

StatusOr<std::int64_t> ParseInt64(const std::string& text, std::int64_t min,
                                  std::int64_t max) {
  if (!LooksNumeric(text, /*allow_minus=*/true)) return NotANumber(text);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') {
    return errno == ERANGE ? OutOfRange(text, RangeInt(min, max))
                           : NotANumber(text);
  }
  if (value < min || value > max) {
    return OutOfRange(text, RangeInt(min, max));
  }
  return static_cast<std::int64_t>(value);
}

StatusOr<std::uint64_t> ParseUInt64(const std::string& text,
                                    std::uint64_t max) {
  if (!LooksNumeric(text, /*allow_minus=*/false)) return NotANumber(text);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end == text.c_str() || *end != '\0') {
    return errno == ERANGE
               ? OutOfRange(text, StrFormat("[0, %llu]",
                                            static_cast<unsigned long long>(
                                                max)))
               : NotANumber(text);
  }
  if (value > max) {
    return OutOfRange(
        text,
        StrFormat("[0, %llu]", static_cast<unsigned long long>(max)));
  }
  return static_cast<std::uint64_t>(value);
}

StatusOr<double> ParseDouble(const std::string& text, double min,
                             double max) {
  if (text.empty() ||
      std::isspace(static_cast<unsigned char>(text.front()))) {
    return NotANumber(text);
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
      errno == ERANGE) {
    return NotANumber(text);
  }
  if (value < min || value > max) {
    return OutOfRange(text, StrFormat("[%g, %g]", min, max));
  }
  return value;
}

StatusOr<Tick> ParseTick(const std::string& text, Tick min, Tick max) {
  return ParseInt64(text, min, max);
}

namespace {

template <typename T, typename Parse>
bool Report(const char* flag, const Parse& parse, T* out) {
  auto result = parse();
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag,
                 result.status().message().c_str());
    return false;
  }
  *out = static_cast<T>(result.value());
  return true;
}

}  // namespace

bool ParseFlagInt64(const char* flag, const std::string& value,
                    std::int64_t min, std::int64_t max, std::int64_t* out) {
  return Report(flag, [&] { return ParseInt64(value, min, max); }, out);
}

bool ParseFlagUInt64(const char* flag, const std::string& value,
                     std::uint64_t max, std::uint64_t* out) {
  return Report(flag, [&] { return ParseUInt64(value, max); }, out);
}

bool ParseFlagDouble(const char* flag, const std::string& value, double min,
                     double max, double* out) {
  return Report(flag, [&] { return ParseDouble(value, min, max); }, out);
}

bool ParseFlagInt(const char* flag, const std::string& value, int min,
                  int max, int* out) {
  return Report(flag, [&] { return ParseInt64(value, min, max); }, out);
}

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int JobsFromEnv(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  auto parsed = ParseInt64(raw, 1, 1024);
  if (!parsed.ok()) {
    std::fprintf(stderr, "warning: ignoring %s=%s (%s); using %d\n", name,
                 raw, parsed.status().message().c_str(), fallback);
    return fallback;
  }
  return static_cast<int>(parsed.value());
}

}  // namespace pcpda
