#include "common/json.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

void JsonWriter::NextMember() {
  Frame& frame = open_.back();
  if (!frame.empty) out_ += frame.layout == JsonLayout::kInline ? ", " : ",";
  frame.empty = false;
  if (frame.layout == JsonLayout::kBlock) {
    out_.append(1, '\n').append(2 * open_.size(), ' ');
  }
}

JsonWriter& JsonWriter::Raw(std::string_view text) {
  if (after_key_) {
    after_key_ = false;
  } else if (open_.empty()) {
    PCPDA_CHECK_MSG(out_.empty(), "one JSON document per Finish");
  } else {
    PCPDA_CHECK_MSG(!open_.back().object, "an object member needs a Key");
    NextMember();
  }
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket, JsonLayout layout) {
  const JsonLayout outer = open_.empty() ? layout : open_.back().layout;
  Raw(std::string_view(&bracket, 1));
  open_.push_back({std::max(layout, outer), bracket == '{'});
  return *this;
}

JsonWriter& JsonWriter::End() {
  PCPDA_CHECK_MSG(!open_.empty() && !after_key_, "End without an open value");
  const Frame frame = open_.back();
  open_.pop_back();
  if (frame.layout == JsonLayout::kBlock && !frame.empty) {
    out_.append(1, '\n').append(2 * open_.size(), ' ');
  }
  out_ += frame.object ? '}' : ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  PCPDA_CHECK_MSG(!open_.empty() && open_.back().object && !after_key_,
                  "a Key belongs in an object, before its value");
  NextMember();
  Quote(key);
  out_ += open_.back().layout == JsonLayout::kCompact ? ":" : ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Raw("");  // the separator and indent
  Quote(value);
  return *this;
}

void JsonWriter::Quote(std::string_view text) {
  out_ += '"';
  for (const char ch : text) {
    const auto c = static_cast<unsigned char>(ch);
    const char* escape = c == '"'    ? "\\\""
                         : c == '\\' ? "\\\\"
                         : c == '\n' ? "\\n"
                         : c == '\t' ? "\\t"
                         : c == '\r' ? "\\r"
                                     : nullptr;
    if (escape != nullptr) {
      out_ += escape;
    } else if (c < 0x20) {
      out_.append("\\u00").append(1, "0123456789abcdef"[c >> 4]);
      out_ += "0123456789abcdef"[c & 0xf];
    } else {
      out_ += ch;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Double(double value, const char* format) {
  return std::isfinite(value) ? Raw(StrFormat(format, value)) : Null();
}

std::string JsonWriter::Finish() {
  PCPDA_CHECK_MSG(open_.empty() && !after_key_, "Finish with a value open");
  return std::exchange(out_, std::string());
}

}  // namespace pcpda
