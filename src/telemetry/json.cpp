#include "telemetry/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"

namespace sor::telemetry {

bool JsonValue::as_bool() const {
  SOR_CHECK_MSG(is_bool(), "json value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  // null is how the writer encodes non-finite doubles (JSON has no
  // nan/inf literals); read it back as quiet NaN so metric round-trips
  // are lossless up to NaN payload.
  if (is_null()) return std::numeric_limits<double>::quiet_NaN();
  SOR_CHECK_MSG(is_number(), "json value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  SOR_CHECK_MSG(is_string(), "json value is not a string");
  return string_;
}

void JsonValue::push(JsonValue v) {
  SOR_CHECK_MSG(is_array(), "push on non-array json value");
  items_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (is_array()) return items_.size();
  if (is_object()) return members_.size();
  SOR_CHECK_MSG(false, "size() on scalar json value");
  return 0;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  SOR_CHECK_MSG(is_array(), "indexing a non-array json value");
  SOR_CHECK_MSG(i < items_.size(), "json array index out of range");
  return items_[i];
}

void JsonValue::set(std::string key, JsonValue v) {
  SOR_CHECK_MSG(is_object(), "set on non-object json value");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

bool JsonValue::has(std::string_view key) const {
  SOR_CHECK_MSG(is_object(), "has() on non-object json value");
  for (const auto& [k, v] : members_) {
    if (k == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  SOR_CHECK_MSG(is_object(), "keyed access on non-object json value");
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  SOR_CHECK_MSG(false, "json object has no key '" << std::string(key) << "'");
  return members_.front().second;  // unreachable
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  SOR_CHECK_MSG(is_object(), "members() on non-object json value");
  return members_;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double n) {
  // JSON has no representation for nan/inf; "null" keeps the document
  // parseable by any consumer (as_number() maps it back to NaN).
  if (!std::isfinite(n)) {
    out += "null";
    return;
  }
  if (n == std::floor(n) && std::abs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", n);
    out += buf;
  }
}

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_number(out, number_);
      break;
    case Kind::kString:
      append_escaped(out, string_);
      break;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent > 0) append_indent(out, indent, depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (indent > 0 && !items_.empty()) append_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent > 0) append_indent(out, indent, depth + 1);
        append_escaped(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent > 0 && !members_.empty()) append_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  /// Deepest array/object nesting accepted. The parser recurses once per
  /// level, so unbounded nesting would overflow the stack; artifacts nest
  /// about ten levels deep.
  static constexpr std::size_t kMaxDepth = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    SOR_CHECK_MSG(pos_ == text_.size(),
                  "trailing characters after json document at " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    SOR_CHECK_MSG(pos_ < text_.size(), "unexpected end of json input");
    return text_[pos_];
  }

  void expect(char c) {
    SOR_CHECK_MSG(peek() == c, "expected '" << c << "' at position " << pos_
                                            << ", got '" << peek() << "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      SOR_CHECK_MSG(depth_ < kMaxDepth, "json nesting deeper than "
                                            << kMaxDepth << " at position "
                                            << pos_);
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue(parse_string());
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    if (consume_literal("null")) return JsonValue();
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          SOR_CHECK_MSG(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A') + 10;
            } else {
              SOR_CHECK_MSG(false, "bad hex digit in \\u escape");
            }
          }
          pos_ += 4;
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // produced by our writer and are rejected here).
          SOR_CHECK_MSG(code < 0xD800 || code > 0xDFFF,
                        "surrogate \\u escapes unsupported");
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
        default:
          SOR_CHECK_MSG(false, "unknown escape '\\" << esc << "'");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    SOR_CHECK_MSG(pos_ > start, "expected a json value at position " << start);
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    SOR_CHECK_MSG(end == token.c_str() + token.size(),
                  "malformed number '" << token << "'");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace sor::telemetry
