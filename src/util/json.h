// A small JSON value type + writer/parser for the bench artifact format.
//
// The bench and runner layers emit machine-readable sweep records
// (`bench/out/*.json`) that downstream tooling diffs and plots; this module
// is the single definition of how those files are written. Scope is kept
// deliberately narrow: the six JSON types, insertion-ordered objects (so a
// dump is deterministic and diffable), shortest-round-trip number
// formatting via std::to_chars, and a strict recursive-descent parser used
// by tests and artifact validation. Not a general-purpose JSON library —
// no comments, no NaN/Infinity extensions (non-finite numbers serialize as
// null), no duplicate-key detection beyond last-write-wins on operator[].
#pragma once

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace eotora::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Default-constructs null; typed constructors cover the JSON leaves.
  Json() = default;
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : Json(static_cast<double>(value)) {}
  Json(long value) : Json(static_cast<double>(value)) {}
  Json(unsigned long value) : Json(static_cast<double>(value)) {}
  Json(unsigned long long value) : Json(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  // Any pointer that is not a C string would otherwise silently convert to
  // bool and store `true`; reject those at compile time.
  template <typename T,
            std::enable_if_t<std::is_pointer_v<T> &&
                                 !std::is_convertible_v<T, const char*>,
                             int> = 0>
  Json(T) = delete;

  [[nodiscard]] static Json array() { return Json(Type::kArray); }
  [[nodiscard]] static Json object() { return Json(Type::kObject); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; throw std::invalid_argument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  // Array interface. push_back requires an array (or null, which it
  // promotes to an empty array first).
  void push_back(Json value);
  [[nodiscard]] std::size_t size() const;  // array or object arity
  [[nodiscard]] const Json& at(std::size_t index) const;

  // Object interface; key order is insertion order, which makes dumps
  // deterministic. operator[] inserts a null value for a new key.
  Json& operator[](const std::string& key);
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items()
      const;
  // Removes `key` if present; returns whether it was.
  bool erase(const std::string& key);

  // Serialization. indent < 0 → compact one-liner; indent >= 0 → pretty
  // print with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  // Strict parse of a complete JSON document (trailing garbage rejected).
  // Throws std::invalid_argument with position info on malformed input.
  [[nodiscard]] static Json parse(const std::string& text);

 private:
  explicit Json(Type type) : type_(type) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

// Escapes `raw` for inclusion inside a JSON string literal (quotes not
// included): ", \, control characters -> \", \\, \n, \uXXXX, ...
[[nodiscard]] std::string json_escape(const std::string& raw);

// Shortest decimal form that round-trips the double (std::to_chars).
// Non-finite values render as "null" (JSON has no NaN/Infinity).
[[nodiscard]] std::string format_json_number(double value);

// Writes `value.dump(indent)` plus a trailing newline to `path`; throws
// std::runtime_error when the file cannot be written.
void write_json_file(const std::string& path, const Json& value,
                     int indent = 2);

}  // namespace eotora::util
