// A small recursive-descent JSON parser for tests that read the exporters'
// output back (the repo itself only ever emits JSON, through JsonWriter).
#pragma once

#include <cctype>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace pregel::test {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  double number() const { return std::get<double>(v); }

  bool has(const std::string& key) const {
    return is_object() && object().count(key) > 0;
  }
  const JsonValue& at(const std::string& key) const { return object().at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json parse error at " + std::to_string(pos_) + ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't':
        literal("true");
        return JsonValue{true};
      case 'f':
        literal("false");
        return JsonValue{false};
      case 'n':
        literal("null");
        return JsonValue{nullptr};
      default: return JsonValue{number()};
    }
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) expect(*p);
  }
  JsonValue object() {
    expect('{');
    JsonObject out;
    skip_ws();
    if (consume('}')) return JsonValue{out};
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace(std::move(key), value());
      skip_ws();
      if (consume('}')) return JsonValue{out};
      expect(',');
    }
  }
  JsonValue array() {
    expect('[');
    JsonArray out;
    skip_ws();
    if (consume(']')) return JsonValue{out};
    while (true) {
      out.push_back(value());
      skip_ws();
      if (consume(']')) return JsonValue{out};
      expect(',');
    }
  }
  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            const unsigned code = static_cast<unsigned>(
                std::stoul(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            // The exporter only emits \u00XX for control bytes.
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }
  double number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("bad number");
    return std::stod(s_.substr(start, pos_ - start));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace pregel::test
