#include "api/spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

#include "api/registry.h"

namespace operb::api {

namespace {

/// Shortest decimal that round-trips through from_chars (to_chars without
/// a precision argument is the shortest-round-trip form by definition).
std::string FormatDouble(double v) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

bool ParseDouble(std::string_view text, double* out) {
  const std::from_chars_result r =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return r.ec == std::errc() && r.ptr == text.data() + text.size();
}

Status MalformedPair(std::string_view token) {
  std::string msg = "malformed spec option '" + std::string(token) +
                    "' (expected key=value)";
  // The classic locale trap: "zeta=2,5" splits into "zeta=2" and "5".
  // A bare number where a pair belongs almost always means a ','-decimal.
  if (!token.empty() &&
      token.find_first_not_of("0123456789.+-eE") == std::string_view::npos) {
    msg += "; use '.' as the decimal separator — ',' separates options";
  }
  return Status::InvalidArgument(std::move(msg));
}

}  // namespace

Result<SimplifierSpec> SimplifierSpec::Parse(std::string_view text) {
  if (text.find_first_not_of(" \t") == std::string_view::npos) {
    return Status::InvalidArgument("empty simplifier spec");
  }
  SimplifierSpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view name = text.substr(0, colon);
  if (name.empty()) {
    return Status::InvalidArgument("spec is missing an algorithm name");
  }
  spec.algorithm = std::string(name);

  bool saw_zeta = false;
  bool saw_fidelity = false;
  if (colon != std::string_view::npos) {
    std::string_view rest = text.substr(colon + 1);
    if (rest.empty()) {
      return Status::InvalidArgument(
          "spec has ':' but no options (drop the ':' or add key=value)");
    }
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string_view token = rest.substr(0, comma);
      rest = comma == std::string_view::npos ? std::string_view()
                                             : rest.substr(comma + 1);
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) return MalformedPair(token);
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      if (key.empty() || value.empty()) return MalformedPair(token);

      if (key == "zeta") {
        if (saw_zeta) {
          return Status::InvalidArgument("duplicate spec option 'zeta'");
        }
        saw_zeta = true;
        if (!ParseDouble(value, &spec.zeta)) {
          return Status::InvalidArgument("zeta is not a number: '" +
                                         std::string(value) + "'");
        }
      } else if (key == "fidelity") {
        if (saw_fidelity) {
          return Status::InvalidArgument("duplicate spec option 'fidelity'");
        }
        saw_fidelity = true;
        if (value == "guarded") {
          spec.fidelity = baselines::OperbFidelity::kGuarded;
        } else if (value == "paper") {
          spec.fidelity = baselines::OperbFidelity::kPaperFaithful;
        } else {
          return Status::InvalidArgument(
              "fidelity must be 'guarded' or 'paper', got '" +
              std::string(value) + "'");
        }
      } else {
        if (spec.HasOption(key)) {
          return Status::InvalidArgument("duplicate spec option '" +
                                         std::string(key) + "'");
        }
        double v = 0.0;
        if (!ParseDouble(value, &v)) {
          return Status::InvalidArgument(
              "option '" + std::string(key) + "' is not a number: '" +
              std::string(value) + "'");
        }
        spec.options.emplace_back(std::string(key), v);
      }
    }
  }
  return spec;
}

Status SimplifierSpec::Validate() const {
  return AlgorithmRegistry::Global().Validate(*this);
}

std::string SimplifierSpec::ToString() const {
  const AlgorithmRegistry::Entry* entry =
      AlgorithmRegistry::Global().Find(algorithm);
  std::string out = entry != nullptr ? entry->name : algorithm;
  out += ":zeta=";
  out += FormatDouble(zeta);
  if (fidelity == baselines::OperbFidelity::kPaperFaithful) {
    out += ",fidelity=paper";
  }
  for (const auto& [key, value] : options) {
    out += ',';
    out += key;
    out += '=';
    out += FormatDouble(value);
  }
  return out;
}

double SimplifierSpec::Option(std::string_view key, double fallback) const {
  for (const auto& [k, v] : options) {
    if (k == key) return v;
  }
  return fallback;
}

bool SimplifierSpec::HasOption(std::string_view key) const {
  return std::any_of(options.begin(), options.end(),
                     [key](const auto& kv) { return kv.first == key; });
}

}  // namespace operb::api
