// archex/support/json.hpp
//
// Minimal self-contained JSON value type, parser and writer — just enough
// for ARCHEX's template/configuration serialization (core/serialize.hpp)
// without an external dependency. Full JSON data model (null, bool, number,
// string, array, object), UTF-8 pass-through, standard escapes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace archex::json {

/// Raised on malformed input or type-mismatched access.
class JsonError : public Error {
 public:
  explicit JsonError(const std::string& what) : Error(what) {}
};

/// Raised by parse() on malformed documents, carrying the error position so
/// callers handling wire input (archex_server request lines, CLI spec
/// files) can point at the offending byte. `line`/`column` are 1-based and
/// count raw bytes (no UTF-8 column normalization); `byte` is the 0-based
/// offset into the document.
class JsonParseError : public JsonError {
 public:
  JsonParseError(const std::string& what, std::size_t line,
                 std::size_t column, std::size_t byte)
      : JsonError(what), line_(line), column_(column), byte_(byte) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] std::size_t column() const { return column_; }
  [[nodiscard]] std::size_t byte() const { return byte_; }

 private:
  std::size_t line_;
  std::size_t column_;
  std::size_t byte_;
};

class Value;
using Array = std::vector<Value>;
/// std::map keeps object keys deterministically ordered in output.
using Object = std::map<std::string, Value>;

enum class Kind : unsigned char {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  /*implicit*/ Value(std::nullptr_t) : kind_(Kind::kNull) {}
  /*implicit*/ Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  /*implicit*/ Value(double n) : kind_(Kind::kNumber), number_(n) {}
  /*implicit*/ Value(int n)
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  /*implicit*/ Value(long long n)
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  /*implicit*/ Value(const char* s) : kind_(Kind::kString), string_(s) {}
  /*implicit*/ Value(std::string s)
      : kind_(Kind::kString), string_(std::move(s)) {}
  /*implicit*/ Value(Array a)
      : kind_(Kind::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  /*implicit*/ Value(Object o)
      : kind_(Kind::kObject),
        object_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const {
    require(Kind::kBool);
    return bool_;
  }
  [[nodiscard]] double as_number() const {
    require(Kind::kNumber);
    return number_;
  }
  [[nodiscard]] int as_int() const {
    const double n = as_number();
    const auto i = static_cast<int>(n);
    if (static_cast<double>(i) != n) throw JsonError("expected an integer");
    return i;
  }
  [[nodiscard]] const std::string& as_string() const {
    require(Kind::kString);
    return string_;
  }
  [[nodiscard]] const Array& as_array() const {
    require(Kind::kArray);
    return *array_;
  }
  [[nodiscard]] const Object& as_object() const {
    require(Kind::kObject);
    return *object_;
  }

  /// Object member access; throws JsonError when missing.
  [[nodiscard]] const Value& at(const std::string& key) const {
    const Object& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end()) throw JsonError("missing member \"" + key + "\"");
    return it->second;
  }

  /// Object member access with a fallback for optional fields.
  [[nodiscard]] const Value& get(const std::string& key,
                                 const Value& fallback) const {
    const Object& obj = as_object();
    const auto it = obj.find(key);
    return it == obj.end() ? fallback : it->second;
  }

  [[nodiscard]] bool contains(const std::string& key) const {
    const Object& obj = as_object();
    return obj.find(key) != obj.end();
  }

 private:
  void require(Kind kind) const {
    if (kind_ != kind) throw JsonError("JSON value has the wrong type");
  }

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so an unbounded depth lets one hostile line ("[[[[...")
/// overflow the stack; deeper documents raise JsonParseError instead. No
/// ARCHEX document nests more than a handful of levels.
inline constexpr int kMaxNestingDepth = 256;

/// Parse a complete JSON document; trailing garbage and nesting deeper than
/// kMaxNestingDepth are errors.
[[nodiscard]] Value parse(std::string_view text);

/// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
[[nodiscard]] std::string dump(const Value& value, int indent = 0);

}  // namespace archex::json
