#ifndef ALPHASORT_OBS_JSON_H_
#define ALPHASORT_OBS_JSON_H_

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace alphasort {
namespace obs {

// Minimal JSON document model, and the one JSON reader behind every
// observability artifact: report schema validation (obs/report.h), the
// Chrome trace check (obs/trace.h), the log and flight-recorder JSONL
// checks, and the BENCH_*.json perf trajectory. Callers need random
// access to fields after the parse, so this builds a DOM.
//
// Deliberately small, not a general-purpose library: numbers are parsed
// as doubles, \uXXXX escapes are validated but kept verbatim, and the
// nesting depth is capped at 32 levels (reports are three levels deep; a
// bomb is a corrupt file, not a use case).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, in
                                                           // file order

  bool IsNull() const { return type == Type::kNull; }
  bool IsBool() const { return type == Type::kBool; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsObject() const { return type == Type::kObject; }

  // Object member lookup; nullptr when absent or when this value is not
  // an object. Duplicate keys resolve to the first occurrence.
  const JsonValue* Find(const std::string& key) const;
};

// Parses `text` as exactly one JSON value (surrounding whitespace
// allowed). Numbers follow the JSON grammar: no leading zeros, and a
// '.' or an exponent needs at least one digit after it. On error,
// returns Corruption with the byte offset.
Status ParseJson(const std::string& text, JsonValue* out);

// Walks `content` as JSON Lines: parses each non-empty line as one JSON
// value and calls `visit` with the line's 1-based number and its value.
// Stops at the first line that does not parse, returning Corruption that
// names the line, or at the first non-OK status `visit` returns, which
// it passes through.
Status ForEachJsonLine(
    const std::string& content,
    const std::function<Status(size_t line_no, const JsonValue& value)>&
        visit);

// Appends `s` to `*out` with JSON string escaping applied (the
// surrounding quotes are the caller's).
void AppendJsonEscaped(std::string_view s, std::string* out);

// Formats a double as a JSON-legal number. JSON has no NaN/Infinity;
// non-finite values serialize as 0 rather than corrupting the document.
std::string JsonNumber(double v);

}  // namespace obs
}  // namespace alphasort

#endif  // ALPHASORT_OBS_JSON_H_
