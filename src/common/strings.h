#ifndef PCPDA_COMMON_STRINGS_H_
#define PCPDA_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <vector>

namespace pcpda {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Pads `s` with spaces on the right to at least `width` characters.
std::string PadRight(std::string s, std::size_t width);

/// Pads `s` with spaces on the left to at least `width` characters.
std::string PadLeft(std::string s, std::size_t width);

}  // namespace pcpda

#endif  // PCPDA_COMMON_STRINGS_H_
