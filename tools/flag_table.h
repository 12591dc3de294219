// Declarative command-line flag tables for the tools/ binaries.
//
// Each flag is one Flag row: its name, its value placeholder (none for a
// switch), the modes it is legal in, a typed handler that parses the
// value into its target, and its help text and section. FlagTable::Parse
// walks argv once, in order — so a later flag may edit what an earlier
// one set (`--spec X --zeta 5`) — and then checks every flag that
// appeared against the selected mode; PrintHelp prints the same rows.
//
// The value parsers are strict: unsigned integers are digits only and
// range-checked, doubles must be finite with no trailing junk. Every
// violation is a one-line "program: ..." diagnostic, never an abort.

#ifndef OPERB_TOOLS_FLAG_TABLE_H_
#define OPERB_TOOLS_FLAG_TABLE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/spec.h"
#include "geo/bbox.h"

namespace operb::tools {

/// Strict decimal parse: digits only (no sign, no ERANGE saturation, no
/// trailing junk). strtoull alone would silently wrap "-5" to 2^64 - 5.
bool ParseU64(const std::string& s, std::uint64_t* out);

/// Strict finite-double parse (no trailing junk, no inf/nan).
bool ParseFiniteDouble(const char* value, double* out);

/// Parses one flag value (nullptr for a switch) into its target. Returns
/// "" on success, else the diagnostic that follows the flag name
/// ("must be ..., got 'x'").
using FlagHandler = std::function<std::string(const char* value)>;

/// Any string, stored as given (paths, HOST:PORT, names).
FlagHandler StringValue(std::string* out);
/// A finite double >= `min`.
FlagHandler FiniteValue(
    double* out, double min = -std::numeric_limits<double>::infinity());
/// A switch: stores `value` when the flag appears.
FlagHandler SwitchValue(bool* out, bool value = true);
/// `X0,Y0,X1,Y1` in meters; corner order is free (the box normalizes).
FlagHandler BoxValue(geo::BoundingBox* out);
/// A whole simplifier spec, `ALGORITHM[:key=value,...]`.
FlagHandler SpecValue(api::SimplifierSpec* out);
/// Runs `handle`, then sets `*given` (presence bits such as
/// api::StoreQuery::has_object).
FlagHandler Marking(bool* given, FlagHandler handle);

/// An unsigned integer in [min, max] stored into any unsigned type.
template <typename T>
FlagHandler UnsignedValue(T* out, std::uint64_t min, std::uint64_t max) {
  static_assert(std::is_unsigned_v<T>);
  return [out, min, max](const char* value) -> std::string {
    std::uint64_t n = 0;
    if (!ParseU64(value, &n) || n < min || n > max) {
      return "must be an integer in " + std::to_string(min) + ".." +
             std::to_string(max) + ", got '" + value + "'";
    }
    *out = static_cast<T>(n);
    return {};
  };
}

/// Bit of mode `m` in a Flag::modes mask.
constexpr unsigned ModeBit(unsigned m) { return 1u << m; }
constexpr unsigned kAllModes = ~0u;
constexpr unsigned kNoMode = ~0u;

/// One command-line flag.
struct Flag {
  std::string_view section;  ///< help section title
  std::string_view name;     ///< "--input"
  std::string_view value;    ///< placeholder ("PATH"); empty for a switch
  unsigned modes;            ///< ModeBit mask of the modes it is legal in
  FlagHandler handle;        ///< may be empty for a pure mode selector
  std::string help;          ///< one paragraph; PrintHelp wraps it
  unsigned selects = kNoMode;  ///< the mode this flag selects, if any
};

/// A program's flags. Mode 0 is the default when no selector appears;
/// at most one distinct selector may appear per run.
class FlagTable {
 public:
  enum class Outcome { kRun, kHelp, kUsageError };

  FlagTable(std::string_view program, std::vector<std::string_view> modes,
            std::vector<Flag> flags);

  /// Applies argv[1..] in order. On kUsageError the one-line diagnostic
  /// has been printed. `--help` / `-h` stops the walk with kHelp.
  Outcome Parse(int argc, char** argv);

  unsigned mode() const { return mode_; }
  /// True when `name` appeared on the command line.
  bool Seen(std::string_view name) const;

  /// Prints "program: message" to stderr; returns false, so rules read
  /// `if (bad) return table.Reject("...");`.
  bool Reject(std::string_view message) const;

  /// `title`, then every row grouped by section, wrapped to 79 columns;
  /// a row legal in only some modes ends with their names in brackets.
  void PrintHelp(std::FILE* out, std::string_view title) const;

 private:
  /// "a, b" over the names of the modes in `modes`.
  std::string ModeList(unsigned modes) const;

  std::string_view program_;
  std::vector<std::string_view> mode_names_;
  std::vector<Flag> flags_;
  std::vector<const Flag*> seen_;
  unsigned mode_ = 0;
};

}  // namespace operb::tools

#endif  // OPERB_TOOLS_FLAG_TABLE_H_
