// Shared minimal JSON support: RFC 8259 string escaping for the exporters
// and the one hand-rolled reader every consumer shares.
//
// The reader (gputn::sim::json) covers the subset our own exporters emit —
// objects, arrays, strings, numbers, bools, null — plus anything a
// hand-edited baseline file may reasonably contain. Both error disciplines
// sit on top of the same code path:
//
//   * parse()      throws std::runtime_error with a byte offset — the CLI
//                  turns that into a nonzero exit naming the offending file
//   * try_parse()  returns std::nullopt on any syntax error, so
//                  EXPECT_TRUE(try_parse(text).has_value()) doubles as a
//                  strict validity check in tests
//
// Malformed-input behavior of both entry points is pinned by
// tests/sim/json_reader_test.cpp.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gputn::sim {

/// RFC 8259 string escaping: quote, backslash, the common control-character
/// shorthands, and \u00XX for the rest of the C0 range.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace json {

struct Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<Array> array;
  std::shared_ptr<Object> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool has(const std::string& key) const {
    return is_object() && object->count(key) > 0;
  }
  const Value& at(const std::string& key) const { return object->at(key); }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("invalid JSON at byte " + std::to_string(pos_) +
                             ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c, const char* ctx) {
    if (!consume(c)) fail(std::string("expected '") + c + "' in " + ctx);
  }
  void literal(const char* word) {
    std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) fail("unrecognized token");
    pos_ += n;
  }

  std::string string_token() {
    expect('"', "string");
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              fail("bad \\u escape");
            }
          }
          // Our exporters only escape ASCII; decode the low byte.
          out.push_back(static_cast<char>(
              std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16)));
          pos_ += 4;
          break;
        }
        default:
          fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  Value value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    char c = s_[pos_];
    Value v;
    if (c == '{') {
      ++pos_;
      v.kind = Value::Kind::kObject;
      v.object = std::make_shared<Object>();
      skip_ws();
      if (consume('}')) return v;
      while (true) {
        std::string key = string_token();
        expect(':', "object");
        (*v.object)[key] = value();
        if (consume(',')) continue;
        expect('}', "object");
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = Value::Kind::kArray;
      v.array = std::make_shared<Array>();
      skip_ws();
      if (consume(']')) return v;
      while (true) {
        v.array->push_back(value());
        if (consume(',')) continue;
        expect(']', "array");
        return v;
      }
    }
    if (c == '"') {
      v.kind = Value::Kind::kString;
      v.string = string_token();
      return v;
    }
    if (c == 't') {
      literal("true");
      v.kind = Value::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      literal("false");
      v.kind = Value::Kind::kBool;
      return v;
    }
    if (c == 'n') {
      literal("null");
      return v;
    }
    std::size_t start = pos_;
    if (c == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("unrecognized token");
    std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    v.number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    v.kind = Value::Kind::kNumber;
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Strict parse; throws std::runtime_error ("invalid JSON at byte N: ...")
/// on malformed input.
inline Value parse(const std::string& text) { return Parser(text).parse(); }

/// Same parser, nullopt discipline: any syntax error returns std::nullopt.
inline std::optional<Value> try_parse(const std::string& text) {
  try {
    return Parser(text).parse();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

// ---- lenient field readers --------------------------------------------------
//
// For report-style consumers (`gputn report`, `gputn whatif --baseline`,
// the analyzer's labels) where a missing or wrong-typed field is not an
// error: each returns `dflt` instead. Readers that validate input (the
// flight-dump parser) check types themselves and throw.

inline double num_or(const Value& obj, const std::string& key,
                     double dflt = 0.0) {
  if (!obj.has(key)) return dflt;
  const Value& v = obj.at(key);
  return v.is_number() ? v.number : dflt;
}

/// A number truncated to int64; `dflt` also when it does not fit.
inline std::int64_t int_or(const Value& obj, const std::string& key,
                           std::int64_t dflt = 0) {
  double d = num_or(obj, key, static_cast<double>(dflt));
  return d >= -0x1p63 && d < 0x1p63 ? static_cast<std::int64_t>(d) : dflt;
}

inline std::string str_or(const Value& obj, const std::string& key,
                          const std::string& dflt = {}) {
  if (!obj.has(key)) return dflt;
  const Value& v = obj.at(key);
  return v.is_string() ? v.string : dflt;
}

inline bool bool_or(const Value& obj, const std::string& key,
                    bool dflt = false) {
  if (!obj.has(key)) return dflt;
  const Value& v = obj.at(key);
  return v.kind == Value::Kind::kBool ? v.boolean : dflt;
}

}  // namespace json

}  // namespace gputn::sim
