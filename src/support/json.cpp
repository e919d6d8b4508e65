#include "support/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace archex::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    // Recover the human position from the byte offset: wire requests and
    // spec files arrive as one opaque string, so "line 3, column 14" is
    // what makes a bad document debuggable.
    const std::size_t at = std::min(pos_, text_.size());
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < at; ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonParseError("JSON parse error at line " + std::to_string(line) +
                             ", column " + std::to_string(column) +
                             " (byte " + std::to_string(at) + "): " + what,
                         line, column, at);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + '\'');
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(nullptr);
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case '"': return Value(parse_string());
      case '[':
      case '{': {
        // One recursion level per bracket: bound it so a hostile "[[[[..."
        // line fails here instead of overflowing the stack.
        if (depth_ == kMaxNestingDepth) {
          fail("nesting deeper than " + std::to_string(kMaxNestingDepth) +
               " levels");
        }
        ++depth_;
        Value v = text_[pos_] == '[' ? parse_array() : parse_object();
        --depth_;
        return v;
      }
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
              }
            }
            // Encode the BMP code point as UTF-8 (surrogate pairs are not
            // needed for ARCHEX identifiers; reject them explicitly).
            if (code >= 0xD800 && code <= 0xDFFF) {
              fail("surrogate pairs are not supported");
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("bad escape character");
        }
        continue;
      }
      out += c;
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                      text_[pos_] == '.' || text_[pos_] == 'e' ||
                      text_[pos_] == 'E' || text_[pos_] == '-' ||
                      text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double number = 0.0;
    const auto* begin = text_.data() + start;
    const auto* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(begin, end, number);
    if (ec != std::errc{} || ptr != end) fail("malformed number");
    return Value(number);
  }

  Value parse_array() {
    expect('[');
    Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      out.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return Value(std::move(out));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Value parse_object() {
    expect('{');
    Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      out.emplace(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return Value(std::move(out));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double n) {
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    os << static_cast<long long>(n);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", n);
  os << buf;
}

void write_value(std::ostream& os, const Value& v, int indent, int depth) {
  const auto pad = [&](int d) {
    if (indent > 0) {
      os << '\n' << std::string(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (v.kind()) {
    case Kind::kNull: os << "null"; return;
    case Kind::kBool: os << (v.as_bool() ? "true" : "false"); return;
    case Kind::kNumber: write_number(os, v.as_number()); return;
    case Kind::kString: write_escaped(os, v.as_string()); return;
    case Kind::kArray: {
      const Array& a = v.as_array();
      if (a.empty()) {
        os << "[]";
        return;
      }
      os << '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i) os << ',';
        pad(depth + 1);
        write_value(os, a[i], indent, depth + 1);
      }
      pad(depth);
      os << ']';
      return;
    }
    case Kind::kObject: {
      const Object& o = v.as_object();
      if (o.empty()) {
        os << "{}";
        return;
      }
      os << '{';
      bool first = true;
      for (const auto& [key, member] : o) {
        if (!first) os << ',';
        first = false;
        pad(depth + 1);
        write_escaped(os, key);
        os << ':';
        if (indent > 0) os << ' ';
        write_value(os, member, indent, depth + 1);
      }
      pad(depth);
      os << '}';
      return;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string dump(const Value& value, int indent) {
  std::ostringstream os;
  write_value(os, value, indent, 0);
  return os.str();
}

}  // namespace archex::json
