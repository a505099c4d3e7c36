#include "util/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace slimfly::spec {

std::string number(double v) {
  char buf[32];
  auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

std::uint64_t read_integer(const std::string& value, std::uint64_t lo,
                           std::uint64_t hi, const std::string& what) {
  const bool digits =
      !value.empty() && value.size() <= 20 &&
      value.find_first_not_of("0123456789") == std::string::npos &&
      (value.size() == 1 || value[0] != '0');
  if (digits) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (errno == 0 && end == value.c_str() + value.size() && v >= lo &&
        v <= hi) {
      return v;
    }
  }
  throw std::invalid_argument(
      what + " needs a canonical integer in " + std::to_string(lo) + ".." +
      std::to_string(hi) +
      " (plain decimal digits: no sign, whitespace, radix prefix, or "
      "leading zeros), got \"" + value + "\"");
}

std::uint64_t read_seed(const std::string& value, const std::string& what) {
  return read_integer(value, 0, std::numeric_limits<std::uint64_t>::max(),
                      what);
}

double read_decimal(const std::string& value, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  const bool finite = !value.empty() && end == value.c_str() + value.size() &&
                      std::isfinite(v);
  if (!finite || number(v) != value) {
    throw std::invalid_argument(
        what + " needs a canonical decimal (finite, spelled the shortest "
               "way that reads back the same: 2.5, not 2.50 or 25e-1), got "
               "\"" + value + "\"" +
        (finite ? " (write " + number(v) + ")" : ""));
  }
  return v;
}

void fail(const char* kind, const std::string& text, const std::string& msg) {
  throw std::invalid_argument(std::string(kind) + " \"" + text + "\": " + msg);
}

Params::Params(const char* kind, const std::string& text)
    : kind_(kind), spec_(text) {
  const std::size_t colon = text.find(':');
  name_ = text.substr(0, colon);
  if (name_.empty()) fail("empty name");
  if (colon == std::string::npos) return;
  const std::string rest = text.substr(colon + 1);
  if (rest.empty()) fail("expected key=value parameters after ':'");
  for (std::size_t pos = 0; pos <= rest.size();) {
    const std::size_t comma = std::min(rest.find(',', pos), rest.size());
    const std::string pair = rest.substr(pos, comma - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      fail("expected key=value, got \"" + pair + "\"" +
           (pair.empty() ? " (a stray or trailing ',')" : ""));
    }
    const std::string key = pair.substr(0, eq);
    if (!params_.emplace(key, pair.substr(eq + 1)).second) {
      fail("duplicate parameter \"" + key + "\"");
    }
    pos = comma + 1;
  }
}

std::optional<std::string> Params::take(const std::string& key) {
  if (std::find(asked_.begin(), asked_.end(), key) == asked_.end()) {
    asked_.push_back(key);
  }
  const auto it = params_.find(key);
  if (it == params_.end()) return std::nullopt;
  std::string value = std::move(it->second);
  params_.erase(it);
  return value;
}

std::string Params::require(const std::string& key) {
  auto value = take(key);
  if (!value) fail("missing required parameter \"" + key + "\"");
  return std::move(*value);
}

std::string Params::what(const std::string& key) const {
  return std::string(kind_) + " \"" + spec_ + "\": key \"" + key + "\"";
}

std::int64_t Params::integer(const std::string& key, std::int64_t lo,
                             std::int64_t hi) {
  return static_cast<std::int64_t>(
      read_integer(require(key), static_cast<std::uint64_t>(lo),
                   static_cast<std::uint64_t>(hi), what(key)));
}

std::int64_t Params::integer(const std::string& key, std::int64_t lo,
                             std::int64_t hi, std::int64_t fallback) {
  if (!has(key)) {
    take(key);  // still listed by finish() as a key this spec takes
    return fallback;
  }
  return integer(key, lo, hi);
}

std::uint64_t Params::seed(const std::string& key, std::uint64_t fallback) {
  const auto value = take(key);
  return value ? read_seed(*value, what(key)) : fallback;
}

double Params::decimal(const std::string& key) {
  return read_decimal(require(key), what(key));
}

std::string Params::text(const std::string& key) { return require(key); }

std::string Params::text(const std::string& key, const std::string& fallback) {
  return take(key).value_or(fallback);
}

std::string Params::nested(const std::string& key,
                           const std::string& fallback) {
  std::string value = text(key, fallback);
  std::replace(value.begin(), value.end(), ';', ',');
  return value;
}

void Params::finish() const {
  if (params_.empty()) return;
  std::string takes;
  for (const auto& key : asked_) takes += (takes.empty() ? " " : ", ") + key;
  fail("unknown parameter \"" + params_.begin()->first + "\" for " + name_ +
       " (" + name_ + " takes" + (takes.empty() ? " no parameters" : takes) +
       ")");
}

void Params::fail(const std::string& msg) const {
  spec::fail(kind_, spec_, msg);
}

}  // namespace slimfly::spec
