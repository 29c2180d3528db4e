#pragma once
// The repo's one JSON code path: JsonlWriter writes every JSON-lines
// stream (result rows, traces, fleet events) and JsonValue reads them and
// the fleet manifest back.  All of it is JSON the repo itself produced, so
// a small recursive-descent parser with strict errors is the whole
// requirement.  Objects preserve insertion order (dump() round-trips
// JsonlWriter rows byte-for-byte), numbers round-trip through the shortest
// form that re-parses, and parse errors carry a byte offset so a truncated
// or corrupted file fails with a usable diagnostic.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace disp {

class JsonValue {
 public:
  JsonValue() = default;
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  /// asNumber() checked to be a non-negative integer that fits uint64.
  [[nodiscard]] std::uint64_t asU64() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  /// Object members in insertion order.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Object insert-or-replace (keeps first-insertion position on replace).
  void set(std::string key, JsonValue value);
  void push(JsonValue value);

  /// Compact single-line serialization (no trailing newline).  `indent > 0`
  /// pretty-prints with that many spaces per level — the manifest form.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses exactly one JSON document (trailing non-whitespace is an
  /// error).  Throws std::runtime_error with a byte offset on malformed
  /// input.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  void dumpTo(std::string& out, int indent, int depth) const;
};

/// Writes one JSON object per line, values as JSON strings, flushing each
/// line so a killed writer leaves every finished line durable.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::ostream& os) : os_(os) {}

  void record(const std::vector<std::pair<std::string, std::string>>& fields);

 private:
  std::ostream& os_;
};

}  // namespace disp
