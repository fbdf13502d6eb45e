// The repo's one JSON core: an ordered document value (objects preserve
// insertion order so encoded specs and reports diff cleanly), a strict
// recursive-descent parser with line/column diagnostics, and a canonical
// serializer.  Everything JSON in the tree flows through this type —
// ScenarioSpec encode/decode, ScenarioReport emission, and the BENCH_E*.json
// files the experiment driver writes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace anon {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kUint, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;  // null

  static JsonValue boolean(bool b);
  static JsonValue uint(std::uint64_t v);
  static JsonValue integer(std::int64_t v);
  static JsonValue number(double v);  // non-finite renders as null
  static JsonValue str(std::string s);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }
  // kUint, kInt and kDouble are all "number" to readers.
  bool is_number() const {
    return kind_ == Kind::kUint || kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  // An integer representable as uint64 (kUint, or a non-negative kInt).
  bool is_uint() const;
  // An integer representable as int64 (kInt, or a small-enough kUint).
  bool is_int() const;

  // Typed reads; the caller must have checked the kind (ANON_CHECKed).
  bool as_bool() const;
  std::uint64_t as_uint() const;
  std::int64_t as_int() const;
  double as_double() const;  // any number kind
  const std::string& as_string() const;

  // Object access (insertion-ordered).  set() replaces in place on key
  // collision, keeping the original position.
  JsonValue& set(const std::string& key, JsonValue v);
  const JsonValue* find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& entries() const;

  // Array access.
  JsonValue& push(JsonValue v);
  const std::vector<JsonValue>& items() const;

  std::size_t size() const;  // members (object) / elements (array)

  // Canonical serialization: two-space indent, members one per line, keys
  // in insertion order, shortest round-trip double rendering.  No trailing
  // newline (file writers append one).
  std::string dump() const;
  // Single-line rendering (diagnostics).
  std::string dump_compact() const;

  // Strict JSON (no comments, no trailing commas); duplicate object keys
  // are an error.  Integer literals parse as kUint/kInt, everything else
  // numeric as kDouble.  (Defined below — JsonParseResult holds a
  // JsonValue, which must be complete first.)
  static struct JsonParseResult parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  void dump_to(std::string& out, int indent, bool pretty) const;

  Kind kind_ = Kind::kNull;
  bool b_ = false;
  std::uint64_t u_ = 0;
  std::int64_t i_ = 0;
  double d_ = 0;
  std::string s_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

struct JsonParseResult {
  std::optional<JsonValue> value;
  std::string error;     // empty on success
  std::size_t line = 0;  // 1-based position of the error
  std::size_t column = 0;
};

// JSON string quoting (shared with diagnostics).
std::string json_quote(const std::string& s);

// Shortest round-trip rendering of a finite double ("0.25", not
// "0.25000000000000001"); integral values render without a decimal point.
std::string json_render_double(double v);

}  // namespace anon
