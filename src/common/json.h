#ifndef PCPDA_COMMON_JSON_H_
#define PCPDA_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pcpda {

/// How a JSON object or array spreads over lines.
enum class JsonLayout : std::uint8_t {
  /// One member per line, two spaces of indent per nesting level; an
  /// empty container is `{}` or `[]`.
  kBlock,
  kInline,   ///< One line, a space after each colon and comma.
  kCompact,  ///< One line, no spaces.
};

/// The one JSON writer: every JSON document the library and its CLIs
/// write streams through it, so quoting, escaping, separators and
/// indentation live here and nowhere else. `Key` names the next value
/// of an object; `BeginObject`/`BeginArray` open a container and `End`
/// closes the innermost one. A container inside an inline or compact
/// one keeps its parent's layout. Misuse (a value without a key in an
/// object, a key in an array, `Finish` with a container open) is a
/// PCPDA_CHECK failure.
class JsonWriter {
 public:
  JsonWriter& BeginObject(JsonLayout layout) { return Open('{', layout); }
  JsonWriter& BeginArray(JsonLayout layout) { return Open('[', layout); }
  JsonWriter& End();
  JsonWriter& Key(std::string_view key);

  /// `"` and `\` get a backslash, newline, tab and carriage return their
  /// two-character escapes, other control bytes become \u00XX, and the
  /// rest (UTF-8 included) passes through, so the literal never holds a
  /// newline.
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(std::int64_t value) { return Raw(std::to_string(value)); }
  JsonWriter& Uint(std::uint64_t value) { return Raw(std::to_string(value)); }
  /// `value` printed with the printf `format` ("%g", "%.6f"); NaN and
  /// infinities, which JSON cannot hold, are written as null.
  JsonWriter& Double(double value, const char* format);
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }

  /// The document, without a trailing newline; every container must be
  /// closed. Leaves the writer empty.
  std::string Finish();

 private:
  struct Frame {
    JsonLayout layout;
    bool object;
    bool empty = true;
  };

  JsonWriter& Open(char bracket, JsonLayout layout);
  /// Writes `text` as the next value, after its separator and indent
  /// (NextMember) unless it follows its key.
  JsonWriter& Raw(std::string_view text);
  /// Writes the comma and indent before the innermost container's next
  /// member or element.
  void NextMember();
  /// Appends `text` as a string literal.
  void Quote(std::string_view text);

  std::string out_;
  std::vector<Frame> open_;
  bool after_key_ = false;
};

}  // namespace pcpda

#endif  // PCPDA_COMMON_JSON_H_
