#include "flag_table.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace operb::tools {

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

bool ParseFiniteDouble(const char* value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value, &end);
  return end != nullptr && end != value && *end == '\0' &&
         std::isfinite(*out);
}

FlagHandler StringValue(std::string* out) {
  return [out](const char* value) {
    *out = value;
    return std::string();
  };
}

FlagHandler FiniteValue(double* out, double min) {
  return [out, min](const char* value) -> std::string {
    double v = 0.0;
    if (!ParseFiniteDouble(value, &v) || v < min) {
      char bound[32] = "";
      if (std::isfinite(min)) {
        std::snprintf(bound, sizeof(bound), " >= %g", min);
      }
      return std::string("must be a finite number") + bound + ", got '" +
             value + "'";
    }
    *out = v;
    return {};
  };
}

FlagHandler SwitchValue(bool* out, bool value) {
  return [out, value](const char*) {
    *out = value;
    return std::string();
  };
}

FlagHandler BoxValue(geo::BoundingBox* out) {
  return [out](const char* value) -> std::string {
    double c[4];
    const char* p = value;
    bool ok = true;
    for (int k = 0; k < 4 && ok; ++k) {
      char* end = nullptr;
      c[k] = std::strtod(p, &end);
      ok = end != p && std::isfinite(c[k]) &&
           (k == 3 ? *end == '\0' : *end == ',');
      p = end + 1;
    }
    if (!ok) {
      return std::string("must be X0,Y0,X1,Y1 (four comma-separated "
                         "meters), got '") +
             value + "'";
    }
    *out = {};
    out->Extend(geo::Vec2{c[0], c[1]});
    out->Extend(geo::Vec2{c[2], c[3]});
    return {};
  };
}

FlagHandler SpecValue(api::SimplifierSpec* out) {
  return [out](const char* value) -> std::string {
    Result<api::SimplifierSpec> parsed = api::SimplifierSpec::Parse(value);
    if (!parsed.ok()) return "is invalid: " + parsed.status().ToString();
    *out = std::move(parsed).value();
    return {};
  };
}

FlagHandler Marking(bool* given, FlagHandler handle) {
  return [given, handle = std::move(handle)](const char* value) {
    std::string error = handle(value);
    if (error.empty()) *given = true;
    return error;
  };
}

FlagTable::FlagTable(std::string_view program,
                     std::vector<std::string_view> modes,
                     std::vector<Flag> flags)
    : program_(program),
      mode_names_(std::move(modes)),
      flags_(std::move(flags)) {}

FlagTable::Outcome FlagTable::Parse(int argc, char** argv) {
  const auto usage_error = [this](const std::string& message) {
    Reject(message);
    return Outcome::kUsageError;
  };
  const Flag* selector = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Outcome::kHelp;
    const auto row = std::find_if(flags_.begin(), flags_.end(),
                                  [&](const Flag& f) { return f.name == arg; });
    if (row == flags_.end()) {
      return usage_error("unknown argument '" + arg + "'");
    }
    const Flag* flag = &*row;
    const char* value = nullptr;
    if (!flag->value.empty()) {
      if (i + 1 >= argc) return usage_error(arg + " requires a value");
      value = argv[++i];
    }
    if (flag->handle) {
      if (const std::string error = flag->handle(value); !error.empty()) {
        return usage_error(arg + " " + error);
      }
    }
    if (flag->selects != kNoMode) {
      if (selector != nullptr && selector->selects != flag->selects) {
        return usage_error(std::string(selector->name) + " and " + arg +
                           " select different modes; give at most one");
      }
      selector = flag;
      mode_ = flag->selects;
    }
    seen_.push_back(flag);
  }
  for (const Flag* flag : seen_) {
    if ((flag->modes & ModeBit(mode_)) == 0) {
      return usage_error(std::string(flag->name) + " is not valid in " +
                         std::string(mode_names_[mode_]) +
                         " mode (valid in: " + ModeList(flag->modes) + ")");
    }
  }
  return Outcome::kRun;
}

std::string FlagTable::ModeList(unsigned modes) const {
  std::string list;
  for (unsigned m = 0; m < mode_names_.size(); ++m) {
    if ((modes & ModeBit(m)) == 0) continue;
    if (!list.empty()) list += ", ";
    list += mode_names_[m];
  }
  return list;
}

bool FlagTable::Seen(std::string_view name) const {
  return std::any_of(seen_.begin(), seen_.end(),
                     [&](const Flag* flag) { return flag->name == name; });
}

bool FlagTable::Reject(std::string_view message) const {
  std::fprintf(stderr, "%.*s: %.*s\n", static_cast<int>(program_.size()),
               program_.data(), static_cast<int>(message.size()),
               message.data());
  return false;
}

namespace {

/// Prints one help row: the flag and its placeholder in a 24-column
/// gutter, the help text word-wrapped to 79 columns beside it.
void PrintRow(std::FILE* out, std::string_view name, std::string_view value,
              std::string_view help) {
  constexpr std::size_t kGutter = 24;
  constexpr std::size_t kWidth = 79;
  std::string line(2, ' ');
  line += name;
  if (!value.empty()) {
    line += ' ';
    line += value;
  }
  line.resize(std::max(line.size() + 1, kGutter), ' ');
  std::size_t text_start = line.size();
  for (std::size_t pos = 0; pos < help.size();) {
    const std::size_t end = std::min(help.find(' ', pos), help.size());
    const std::string_view word = help.substr(pos, end - pos);
    if (line.size() > text_start && line.size() + 1 + word.size() > kWidth) {
      std::fprintf(out, "%s\n", line.c_str());
      line.assign(kGutter, ' ');
      text_start = kGutter;
    }
    if (line.size() > text_start) line += ' ';
    line += word;
    pos = end + 1;
  }
  std::fprintf(out, "%s\n", line.c_str());
}

}  // namespace

void FlagTable::PrintHelp(std::FILE* out, std::string_view title) const {
  std::fprintf(out, "%.*s\n", static_cast<int>(title.size()), title.data());
  std::string_view section;
  for (const Flag& flag : flags_) {
    if (flag.section != section) {
      section = flag.section;
      std::fprintf(out, "\n%.*s\n", static_cast<int>(section.size()),
                   section.data());
    }
    // A mode's own selector needs no note; every other row that is not
    // legal everywhere names its modes, straight from the mask.
    const unsigned all = ModeBit(mode_names_.size()) - 1;
    if (flag.selects != kNoMode || (flag.modes & all) == all) {
      PrintRow(out, flag.name, flag.value, flag.help);
    } else {
      PrintRow(out, flag.name, flag.value,
               flag.help + " [" + ModeList(flag.modes) + "]");
    }
  }
  PrintRow(out, "--help", "", "this text");
}

}  // namespace operb::tools
