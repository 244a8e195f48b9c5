#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "util/check.h"

namespace eotora::util {

bool Json::as_bool() const {
  EOTORA_REQUIRE_MSG(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Json::as_number() const {
  EOTORA_REQUIRE_MSG(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& Json::as_string() const {
  EOTORA_REQUIRE_MSG(is_string(), "JSON value is not a string");
  return string_;
}

void Json::push_back(Json value) {
  if (is_null()) type_ = Type::kArray;
  EOTORA_REQUIRE_MSG(is_array(), "push_back on a non-array JSON value");
  array_.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  EOTORA_REQUIRE_MSG(false, "size() on a non-container JSON value");
  return 0;  // unreachable
}

const Json& Json::at(std::size_t index) const {
  EOTORA_REQUIRE_MSG(is_array(), "at(index) on a non-array JSON value");
  EOTORA_REQUIRE_MSG(index < array_.size(),
                     "index " << index << " out of range (size "
                              << array_.size() << ")");
  return array_[index];
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) type_ = Type::kObject;
  EOTORA_REQUIRE_MSG(is_object(), "operator[] on a non-object JSON value");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, Json());
  return object_.back().second;
}

bool Json::contains(const std::string& key) const {
  if (!is_object()) return false;
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  EOTORA_REQUIRE_MSG(is_object(), "at(key) on a non-object JSON value");
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  EOTORA_REQUIRE_MSG(false, "missing JSON key \"" << key << "\"");
  return *this;  // unreachable
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  EOTORA_REQUIRE_MSG(is_object(), "items() on a non-object JSON value");
  return object_;
}

bool Json::erase(const std::string& key) {
  EOTORA_REQUIRE_MSG(is_object(), "erase(key) on a non-object JSON value");
  for (auto it = object_.begin(); it != object_.end(); ++it) {
    if (it->first == key) {
      object_.erase(it);
      return true;
    }
  }
  return false;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  return out;
}

std::string format_json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  EOTORA_ASSERT(ec == std::errc());
  return std::string(buf, end);
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int levels) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(levels),
               ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      out += format_json_number(number_);
      break;
    case Type::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      break;
    case Type::kArray:
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    case Type::kObject:
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        out += '"';
        out += json_escape(object_[i].first);
        out += "\":";
        if (pretty) out += ' ';
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

// Strict recursive-descent parser over the input buffer.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    require(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    require(pos_ < text_.size() && text_[pos_] == c, "unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        require(consume_literal("true"), "invalid literal");
        return Json(true);
      case 'f':
        require(consume_literal("false"), "invalid literal");
        return Json(false);
      case 'n':
        require(consume_literal("null"), "invalid literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json object = Json::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      const std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[key] = parse_value();
      skip_whitespace();
      const char next = peek();
      ++pos_;
      if (next == '}') return object;
      require(next == ',', "expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json array = Json::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      const char next = peek();
      ++pos_;
      if (next == ']') return array;
      require(next == ',', "expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  unsigned parse_hex4() {
    require(pos_ + 4 <= text_.size(), "truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      require(pos_ < text_.size(), "truncated escape");
      const char esc = text_[pos_++];
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
          unsigned code_point = parse_hex4();
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00..\uDFFF.
            require(pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
                        text_[pos_ + 1] == 'u',
                    "unpaired high surrogate");
            pos_ += 2;
            const unsigned low = parse_hex4();
            require(low >= 0xDC00 && low <= 0xDFFF,
                    "invalid low surrogate");
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else {
            require(!(code_point >= 0xDC00 && code_point <= 0xDFFF),
                    "unpaired low surrogate");
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    require(digits(), "invalid number");
    // JSON forbids leading zeros in the integer part: "0" is fine, "0123"
    // is not (RFC 8259 int = zero / digit1-9 *DIGIT).
    require(pos_ - int_start == 1 || text_[int_start] != '0',
            "leading zeros are not allowed");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      require(digits(), "digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      require(digits(), "digits required in exponent");
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    require(ec == std::errc() && end == text_.data() + pos_,
            "number out of range");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

void write_json_file(const std::string& path, const Json& value, int indent) {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  file << value.dump(indent) << '\n';
  if (!file.good()) {
    throw std::runtime_error("failed writing " + path);
  }
}

}  // namespace eotora::util
