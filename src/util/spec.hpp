#pragma once
// The one spec-string grammar behind every registry axis: topology specs
// (topo::make), routing specs (sim::parse_routing_spec) and traffic specs
// (sim::make_traffic) all read
//
//   spec   := name [ ":" params ]
//   params := key "=" value { "," key "=" value }
//
// through Params below. exp::point_seed hashes the raw strings, so every
// setting has exactly one spelling: empty, duplicate and trailing-comma
// parameters are rejected, integers are plain decimal digits without
// leading zeros, and decimals are spelled the way number() prints them.
// A nested spec inside a value (base=) spells its own ',' as ';'.
// Every error is std::invalid_argument naming the offending spec.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace slimfly::spec {

/// Shortest decimal that parses back to the same double (std::to_chars:
/// plain or exponent notation, whichever is shorter, plain on a tie — so
/// 10000 and 0.001 but 1e+05 and 1e-04). The canonical spelling of a
/// decimal spec value, and of every number the BENCH/suite writers emit.
std::string number(double v);

/// Canonical unsigned integer in lo..hi: plain decimal digits, no sign,
/// whitespace, radix prefix or leading zeros. Otherwise throws
/// std::invalid_argument "<what> needs a canonical integer in lo..hi ...".
std::uint64_t read_integer(const std::string& value, std::uint64_t lo,
                           std::uint64_t hi, const std::string& what);

/// read_integer over the full 64-bit range.
std::uint64_t read_seed(const std::string& value, const std::string& what);

/// Canonical finite decimal: exactly the text number() prints for it
/// ("2.5", "8", "0.05", "1e+06"; not "2.50", "8.0", "5e-2" or "1000000").
/// A finite value spelled otherwise is rejected naming its canonical text.
double read_decimal(const std::string& value, const std::string& what);

/// Throws std::invalid_argument "<kind> \"<text>\": <msg>".
[[noreturn]] void fail(const char* kind, const std::string& text,
                       const std::string& msg);

/// A spec split into its name and parameters. Readers consume their key
/// (required when no fallback is given); finish() then rejects every key
/// no reader asked for, listing the ones that were.
class Params {
 public:
  /// `kind` prefixes every error: "topology spec", "routing spec", ...
  Params(const char* kind, const std::string& text);

  const std::string& name() const { return name_; }
  bool has(const std::string& key) const { return params_.count(key) != 0; }

  std::int64_t integer(const std::string& key, std::int64_t lo,
                       std::int64_t hi);
  std::int64_t integer(const std::string& key, std::int64_t lo,
                       std::int64_t hi, std::int64_t fallback);
  std::uint64_t seed(const std::string& key, std::uint64_t fallback);
  double decimal(const std::string& key);
  std::string text(const std::string& key);
  std::string text(const std::string& key, const std::string& fallback);
  /// A nested spec value, with its ';' decoded back to ','.
  std::string nested(const std::string& key, const std::string& fallback);

  void finish() const;
  [[noreturn]] void fail(const std::string& msg) const;
  /// `key` as an error message names it: <kind> "<spec>": key "<key>".
  std::string what(const std::string& key) const;

 private:
  /// Value of `key`, consumed; nullopt when absent.
  std::optional<std::string> take(const std::string& key);
  /// take() for a required key: a missing one is a named error.
  std::string require(const std::string& key);

  const char* kind_;
  std::string spec_;
  std::string name_;
  std::map<std::string, std::string> params_;
  std::vector<std::string> asked_;
};

}  // namespace slimfly::spec
