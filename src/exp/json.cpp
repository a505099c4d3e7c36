#include "exp/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/spec.hpp"

namespace slimfly::exp::json {
namespace {

constexpr int kMaxDepth = 64;  // far beyond any suite/BENCH file; bounds fuzz

class Parser {
 public:
  Parser(const std::string& text, const std::string& origin)
      : text_(text), origin_(origin) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::invalid_argument((origin_.empty() ? "" : origin_ + ": ") +
                                "line " + std::to_string(line) + " col " +
                                std::to_string(col) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          Value v;
          v.kind = Value::Kind::Bool;
          v.boolean = true;
          return v;
        }
        fail("invalid literal (expected \"true\")");
      case 'f':
        if (consume_literal("false")) {
          Value v;
          v.kind = Value::Kind::Bool;
          v.boolean = false;
          return v;
        }
        fail("invalid literal (expected \"false\")");
      case 'n':
        if (consume_literal("null")) return Value{};
        fail("invalid literal (expected \"null\")");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Value parse_object(int depth) {
    ++pos_;  // '{'
    Value v;
    v.kind = Value::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected '\"' to start an object key");
      std::string key = parse_string();
      for (const auto& member : v.object) {
        if (member.first == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key \"" + key + "\"");
      ++pos_;
      v.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    ++pos_;  // '['
    Value v;
    v.kind = Value::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value(depth + 1));
      skip_ws();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening '"'
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;
      char esc = peek();
      ++pos_;
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) fail("truncated \\u escape");
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs collapse to
          // U+FFFD — suite files are ASCII in practice).
          if (code >= 0xD800 && code <= 0xDFFF) code = 0xFFFD;
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("malformed number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zeros are not JSON
    } else {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("malformed number (digits required after '.')");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("malformed number (digits required in exponent)");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.raw = text_.substr(start, pos_ - start);
    v.number = std::strtod(v.raw.c_str(), nullptr);
    return v;
  }

  const std::string& text_;
  const std::string& origin_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& member : object) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const char* Value::kind_name(Kind kind) {
  switch (kind) {
    case Kind::Null: return "null";
    case Kind::Bool: return "boolean";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void kind_error(const std::string& context, const char* want,
                             Value::Kind got) {
  throw std::invalid_argument(context + ": expected " + want + ", got " +
                              Value::kind_name(got));
}
}  // namespace

bool Value::as_bool(const std::string& context) const {
  if (kind != Kind::Bool) kind_error(context, "boolean", kind);
  return boolean;
}

double Value::as_number(const std::string& context) const {
  if (kind != Kind::Number) kind_error(context, "number", kind);
  return number;
}

std::uint64_t Value::as_uint64(const std::string& context) const {
  if (kind != Kind::Number) kind_error(context, "number", kind);
  if (raw.empty() || raw.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(context + ": expected a non-negative integer, got " + raw);
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (errno != 0 || (end && *end)) {
    throw std::invalid_argument(context + ": integer out of range: " + raw);
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& Value::as_string(const std::string& context) const {
  if (kind != Kind::String) kind_error(context, "string", kind);
  return string;
}

const std::vector<Value>& Value::as_array(const std::string& context) const {
  if (kind != Kind::Array) kind_error(context, "array", kind);
  return array;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object(
    const std::string& context) const {
  if (kind != Kind::Object) kind_error(context, "object", kind);
  return object;
}

Value parse(const std::string& text, const std::string& origin) {
  return Parser(text, origin).run();
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(raw);
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double v) { return spec::number(v); }

}  // namespace slimfly::exp::json
