#pragma once

// Minimal JSON document model: enough to serialize telemetry/bench
// artifacts and to parse them back (round-trip tests, the BENCH_*.json
// schema checker). Not a general-purpose JSON library — no comments, no
// \uXXXX emission (input \uXXXX is decoded for the BMP), numbers are
// doubles.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sor::telemetry {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                // NOLINT
  JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}          // NOLINT
  JsonValue(std::uint64_t n)                                         // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  JsonValue(int n) : kind_(Kind::kNumber), number_(n) {}             // NOLINT
  JsonValue(std::string s)                                           // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}     // NOLINT

  static JsonValue array() { return JsonValue(Kind::kArray); }
  static JsonValue object() { return JsonValue(Kind::kObject); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw CheckError on kind mismatch. as_number()
  /// additionally accepts null (the encoding of non-finite doubles) and
  /// returns quiet NaN for it.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access.
  void push(JsonValue v);
  std::size_t size() const;  // array or object
  const JsonValue& at(std::size_t i) const;

  /// Object access (insertion order preserved).
  void set(std::string key, JsonValue v);
  bool has(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;  // throws if absent
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Serialization. indent > 0 pretty-prints; 0 emits compact one-line.
  std::string dump(int indent = 0) const;

  /// Parses a complete JSON document (trailing non-space rejected).
  /// Throws CheckError with position info on malformed input, including
  /// arrays/objects nested more than 256 levels deep.
  static JsonValue parse(std::string_view text);

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;                            // array
  std::vector<std::pair<std::string, JsonValue>> members_;  // object
};

}  // namespace sor::telemetry
