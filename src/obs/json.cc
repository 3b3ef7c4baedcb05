#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/table.h"

namespace alphasort {
namespace obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(const std::string& text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  Status Parse(JsonValue* out) {
    ALPHASORT_RETURN_IF_ERROR(ParseValue(out, 0));
    SkipSpace();
    if (p_ != end_) return Fail("trailing characters after JSON value");
    return Status::OK();
  }

 private:
  Status Fail(const std::string& why) const {
    return Status::Corruption(StrFormat(
        "JSON invalid at byte %zu: %s", static_cast<size_t>(p_ - begin_),
        why.c_str()));
  }

  void SkipSpace() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  Status ConsumeWord(const char* word) {
    for (const char* w = word; *w != '\0'; ++w, ++p_) {
      if (p_ >= end_ || *p_ != *w) return Fail("malformed literal");
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    SkipSpace();
    if (p_ >= end_ || *p_ != '"') return Fail("expected string");
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return Fail("unterminated escape");
        const char esc = *p_;
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // Validate the four hex digits; keep the escape verbatim
            // (report fields are ASCII; decoding is not needed).
            out->push_back('\\');
            out->push_back('u');
            for (int i = 0; i < 4; ++i) {
              ++p_;
              if (p_ >= end_ ||
                  !isxdigit(static_cast<unsigned char>(*p_))) {
                return Fail("bad \\u escape");
              }
              out->push_back(*p_);
            }
            break;
          }
          default:
            return Fail("bad escape character");
        }
        ++p_;
      } else {
        out->push_back(*p_);
        ++p_;
      }
    }
    if (p_ >= end_) return Fail("unterminated string");
    ++p_;  // closing quote
    return Status::OK();
  }

  // Skips a run of digits; returns how many.
  size_t SkipDigits() {
    const char* start = p_;
    while (p_ < end_ && isdigit(static_cast<unsigned char>(*p_))) ++p_;
    return static_cast<size_t>(p_ - start);
  }

  // number = [ "-" ] ( "0" / digit1-9 *DIGIT ) [ "." 1*DIGIT ]
  //          [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ]
  Status ParseNumber(JsonValue* out) {
    SkipSpace();
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    if (p_ < end_ && *p_ == '0') {
      ++p_;
      if (p_ < end_ && isdigit(static_cast<unsigned char>(*p_))) {
        return Fail("number has a leading zero");
      }
    } else if (SkipDigits() == 0) {
      return Fail("malformed number");
    }
    if (p_ < end_ && *p_ == '.') {
      ++p_;
      if (SkipDigits() == 0) return Fail("number has no digit after '.'");
    }
    if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ < end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (SkipDigits() == 0) return Fail("number has an empty exponent");
    }
    out->type = JsonValue::Type::kNumber;
    out->number_value = strtod(std::string(start, p_).c_str(), nullptr);
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (p_ >= end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{': {
        out->type = JsonValue::Type::kObject;
        ++p_;
        if (Consume('}')) return Status::OK();
        do {
          std::string key;
          ALPHASORT_RETURN_IF_ERROR(ParseString(&key));
          if (!Consume(':')) return Fail("expected ':'");
          JsonValue value;
          ALPHASORT_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
          out->members.emplace_back(std::move(key), std::move(value));
        } while (Consume(','));
        if (!Consume('}')) return Fail("expected '}'");
        return Status::OK();
      }
      case '[': {
        out->type = JsonValue::Type::kArray;
        ++p_;
        if (Consume(']')) return Status::OK();
        do {
          JsonValue value;
          ALPHASORT_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
          out->items.push_back(std::move(value));
        } while (Consume(','));
        if (!Consume(']')) return Fail("expected ']'");
        return Status::OK();
      }
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string_value);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->bool_value = true;
        return ConsumeWord("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->bool_value = false;
        return ConsumeWord("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return ConsumeWord("null");
      default:
        return ParseNumber(out);
    }
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
};

}  // namespace

Status ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Parse(out);
}

Status ForEachJsonLine(
    const std::string& content,
    const std::function<Status(size_t line_no, const JsonValue& value)>&
        visit) {
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    if (Status s = ParseJson(line, &value); !s.ok()) {
      return Status::Corruption(StrFormat("line %zu does not parse: %s",
                                          line_no, s.message().c_str()));
    }
    ALPHASORT_RETURN_IF_ERROR(visit(line_no, value));
  }
  return Status::OK();
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out += StrFormat("\\u%04x", c);
    } else {
      out->push_back(c);
    }
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  // %.17g round-trips doubles but litters short values with noise;
  // %.12g is exact for every counter below 2^39 and sub-ppm above.
  std::string s = StrFormat("%.12g", v);
  return s;
}

}  // namespace obs
}  // namespace alphasort
