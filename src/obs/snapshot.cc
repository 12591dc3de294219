#include "obs/snapshot.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace operb::obs {

namespace {

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendI64(std::string* out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

/// Metric names are dotted identifiers (no quotes/backslashes/control
/// bytes), so JSON escaping is the identity; assert the invariant
/// instead of implementing an escaper nothing can reach.
void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
      *out += '_';
    } else {
      *out += c;
    }
  }
  *out += '"';
}

const MetricsRegistry& ResolveRegistry(const SnapshotOptions& options) {
  return options.registry != nullptr ? *options.registry
                                     : MetricsRegistry::Global();
}

}  // namespace

std::string RenderSnapshotText(const SnapshotOptions& options) {
  const MetricsRegistry& registry = ResolveRegistry(options);
  std::string out = "operb metrics snapshot (schema v";
  out += std::to_string(kSnapshotSchemaVersion);
  out += ")\n";
  for (const auto& [name, value] : registry.CounterValues()) {
    out += "counter    ";
    out += name;
    out += " = ";
    AppendU64(&out, value);
    out += '\n';
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    out += "gauge      ";
    out += name;
    out += " = ";
    AppendI64(&out, value);
    out += '\n';
  }
  for (const auto& [name, value] : registry.MaxGaugeValues()) {
    out += "max_gauge  ";
    out += name;
    out += " = ";
    AppendI64(&out, value);
    out += '\n';
  }
  for (const auto& [name, h] : registry.HistogramValues()) {
    out += "histogram  ";
    out += name;
    out += ": count=";
    AppendU64(&out, h.count);
    out += " sum=";
    AppendU64(&out, h.sum);
    out += " p50<=";
    AppendU64(&out, static_cast<std::uint64_t>(h.ApproxPercentile(0.50)));
    out += " p99<=";
    AppendU64(&out, static_cast<std::uint64_t>(h.ApproxPercentile(0.99)));
    out += '\n';
  }
  return out;
}

std::string RenderSnapshotJson(const SnapshotOptions& options) {
  const MetricsRegistry& registry = ResolveRegistry(options);
  std::string out = "{\n  \"schema\": ";
  AppendJsonString(&out, kSnapshotSchemaName);
  out += ",\n  \"schema_version\": ";
  out += std::to_string(kSnapshotSchemaVersion);

  const auto emit_map = [&out](const char* section, const auto& entries,
                               auto&& append_value) {
    out += ",\n  \"";
    out += section;
    out += "\": {";
    bool first = true;
    for (const auto& [name, value] : entries) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonString(&out, name);
      out += ": ";
      append_value(value);
    }
    out += first ? "}" : "\n  }";
  };

  emit_map("counters", registry.CounterValues(),
           [&out](std::uint64_t v) { AppendU64(&out, v); });
  emit_map("gauges", registry.GaugeValues(),
           [&out](std::int64_t v) { AppendI64(&out, v); });
  emit_map("max_gauges", registry.MaxGaugeValues(),
           [&out](std::int64_t v) { AppendI64(&out, v); });
  emit_map("histograms", registry.HistogramValues(),
           [&out](const HistogramSnapshot& h) {
             out += "{\"count\": ";
             AppendU64(&out, h.count);
             out += ", \"sum\": ";
             AppendU64(&out, h.sum);
             out += ", \"buckets\": [";
             // Trailing zero buckets are elided — the parser pads back.
             std::size_t last = HistogramSnapshot::kBuckets;
             while (last > 0 && h.buckets[last - 1] == 0) --last;
             for (std::size_t b = 0; b < last; ++b) {
               if (b > 0) out += ", ";
               AppendU64(&out, h.buckets[b]);
             }
             out += "]}";
           });

  out += "\n}\n";
  return out;
}

Status AtomicWriteFile(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  const bool wrote =
      content.empty() ||
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " over " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteSnapshotJson(const std::string& path,
                         const SnapshotOptions& options,
                         const AtomicWriteFn& write) {
  const std::string json = RenderSnapshotJson(options);
  if (write) return write(path, json);
  return AtomicWriteFile(path, json);
}

// ---------------------------------------------------------------------------
// Parser: a recursive-descent reader for exactly the document shape
// RenderSnapshotJson emits (strings, integers, flat maps, one level of
// nesting, arrays of integers). Whitespace-tolerant; everything else is
// kCorruption.
// ---------------------------------------------------------------------------

namespace {

class SnapshotParser {
 public:
  explicit SnapshotParser(std::string_view json) : s_(json) {}

  Result<ParsedSnapshot> Parse() {
    ParsedSnapshot out;
    if (!Consume('{')) return Corrupt("expected '{'");
    bool first = true;
    while (true) {
      SkipWs();
      if (Consume('}')) break;
      if (!first && !Consume(',')) return Corrupt("expected ','");
      first = false;
      std::string key;
      if (!ParseString(&key)) return Corrupt("expected key string");
      if (!Consume(':')) return Corrupt("expected ':'");
      if (key == "schema") {
        if (!ParseString(&out.schema)) return Corrupt("bad schema");
      } else if (key == "schema_version") {
        std::uint64_t v = 0;
        if (!ParseU64(&v)) return Corrupt("bad schema_version");
        out.schema_version = static_cast<int>(v);
      } else if (key == "counters") {
        if (!ParseU64Map(&out.counters)) return Corrupt("bad counters");
      } else if (key == "gauges") {
        if (!ParseI64Map(&out.gauges)) return Corrupt("bad gauges");
      } else if (key == "max_gauges") {
        if (!ParseI64Map(&out.max_gauges)) return Corrupt("bad max_gauges");
      } else if (key == "histograms") {
        if (!ParseHistogramMap(&out.histograms)) {
          return Corrupt("bad histograms");
        }
      } else {
        return Corrupt("unknown key '" + key + "'");
      }
    }
    SkipWs();
    if (i_ != s_.size()) return Corrupt("trailing bytes");
    if (out.schema != kSnapshotSchemaName) {
      return Corrupt("unexpected schema '" + out.schema + "'");
    }
    return out;
  }

 private:
  Status Corrupt(const std::string& what) {
    return Status::Corruption("metrics snapshot: " + what + " at byte " +
                              std::to_string(i_));
  }

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') return false;  // the emitter never escapes
      *out += s_[i_++];
    }
    if (i_ == s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  bool ParseU64(std::uint64_t* out) {
    SkipWs();
    const std::size_t start = i_;
    std::uint64_t v = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(s_[i_] - '0');
      ++i_;
    }
    if (i_ == start) return false;
    *out = v;
    return true;
  }

  bool ParseI64(std::int64_t* out) {
    SkipWs();
    const bool negative = i_ < s_.size() && s_[i_] == '-';
    if (negative) ++i_;
    std::uint64_t magnitude = 0;
    if (!ParseU64(&magnitude)) return false;
    *out = negative ? -static_cast<std::int64_t>(magnitude)
                    : static_cast<std::int64_t>(magnitude);
    return true;
  }

  template <typename Map, typename ParseValue>
  bool ParseMap(Map* out, ParseValue&& parse_value) {
    if (!Consume('{')) return false;
    bool first = true;
    while (true) {
      SkipWs();
      if (Consume('}')) return true;
      if (!first && !Consume(',')) return false;
      first = false;
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      typename Map::mapped_type value{};
      if (!parse_value(&value)) return false;
      (*out)[key] = std::move(value);
    }
  }

  bool ParseU64Map(std::map<std::string, std::uint64_t>* out) {
    return ParseMap(out, [this](std::uint64_t* v) { return ParseU64(v); });
  }

  bool ParseI64Map(std::map<std::string, std::int64_t>* out) {
    return ParseMap(out, [this](std::int64_t* v) { return ParseI64(v); });
  }

  bool ParseHistogramMap(
      std::map<std::string, ParsedSnapshot::Histogram>* out) {
    return ParseMap(out, [this](ParsedSnapshot::Histogram* h) {
      if (!Consume('{')) return false;
      bool first = true;
      while (true) {
        SkipWs();
        if (Consume('}')) return true;
        if (!first && !Consume(',')) return false;
        first = false;
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        if (key == "count") {
          if (!ParseU64(&h->count)) return false;
        } else if (key == "sum") {
          if (!ParseU64(&h->sum)) return false;
        } else if (key == "buckets") {
          if (!Consume('[')) return false;
          if (!Consume(']')) {
            while (true) {
              std::uint64_t v = 0;
              if (!ParseU64(&v)) return false;
              h->buckets.push_back(v);
              if (Consume(']')) break;
              if (!Consume(',')) return false;
            }
          }
          h->buckets.resize(HistogramSnapshot::kBuckets, 0);
        } else {
          return false;
        }
      }
    });
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace

Result<ParsedSnapshot> ParseSnapshotJson(std::string_view json) {
  return SnapshotParser(json).Parse();
}

}  // namespace operb::obs
