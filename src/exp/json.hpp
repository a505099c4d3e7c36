#pragma once
// Minimal strict JSON reader shared by the suite loader (exp/suite.hpp) and
// the BENCH trajectory differ (exp/diff.hpp). Deliberately tiny: the repo
// bakes in no third-party JSON dependency, and the two consumers only need
// a faithful value tree with good error messages.
//
// Properties the consumers rely on:
//   * strict RFC 8259 parsing — trailing garbage, unquoted keys, comments,
//     and control characters in strings are errors, never silently accepted;
//   * errors are std::invalid_argument naming line and column, so a typo in
//     a suite file is self-serve diagnosable from the message alone;
//   * object member order is preserved (round-trip serialization stays
//     diffable) and duplicate keys are rejected;
//   * numbers keep their raw text next to the double value, so 64-bit seeds
//     round-trip exactly through as_uint64() without a double detour;
//   * nesting depth is capped, so adversarial input exhausts neither the
//     stack nor the parser (tests/suite_test.cpp fuzzes truncations).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace slimfly::exp::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string raw;     ///< exact source text of a Number
  std::string string;  ///< decoded contents of a String
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< insertion order

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// Human name of the kind ("object", "number", ...) for error messages.
  static const char* kind_name(Kind kind);

  // Checked accessors: throw std::invalid_argument naming `context` (a
  // JSON-path-like string maintained by the caller) and the actual kind.
  bool as_bool(const std::string& context) const;
  double as_number(const std::string& context) const;
  /// Exact unsigned 64-bit read from the raw number text (rejects
  /// fractions, exponents, and negatives).
  std::uint64_t as_uint64(const std::string& context) const;
  const std::string& as_string(const std::string& context) const;
  const std::vector<Value>& as_array(const std::string& context) const;
  const std::vector<std::pair<std::string, Value>>& as_object(
      const std::string& context) const;
};

/// Parses exactly one JSON document. Throws std::invalid_argument with
/// "<origin>: line L col C: ..." on any syntax error (origin "" omits the
/// prefix — useful when the text does not come from a file).
Value parse(const std::string& text, const std::string& origin = "");

/// Serializes a string with RFC 8259 escaping, including the quotes.
std::string quote(const std::string& s);

/// Serializes a double as the shortest decimal that parses back to the
/// same bits: spec::number (util/spec.hpp), the spelling decimal spec
/// values must use too. Every number the BENCH/suite writers emit goes
/// through this, so written trajectories reload exactly — the property
/// golden-file comparison and `sweep diff`'s exact comparison rest on.
std::string number(double v);

}  // namespace slimfly::exp::json
