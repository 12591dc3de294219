#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <unordered_map>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "api/registry.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "geo/simd.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double QuantileOfQuantiles(const std::vector<std::vector<double>>& groups,
                           double q, double across) {
  std::vector<double> per_group;
  for (const std::vector<double>& g : groups) {
    if (!g.empty()) per_group.push_back(Quantile(g, q));
  }
  return Quantile(std::move(per_group), across);
}

std::vector<std::vector<double>> BySecond(const std::vector<double>& values,
                                          const std::vector<double>& at_s,
                                          double seconds) {
  std::vector<std::vector<double>> out(
      static_cast<std::size_t>(std::max(1.0, std::floor(seconds))));
  for (std::size_t i = 0; i < values.size() && i < at_s.size(); ++i) {
    if (!(at_s[i] >= 0.0)) continue;
    const auto k = static_cast<std::size_t>(at_s[i]);
    if (k < out.size()) out[k].push_back(values[i]);
  }
  return out;
}

// ---------------------------------------------------------------------
// Checks / Metrics
// ---------------------------------------------------------------------

bool Checks::Expect(bool ok, const std::string& check) {
  Count(check, 1, ok ? 0 : 1);
  return ok;
}

void Checks::Count(const std::string& check, std::uint64_t n,
                   std::uint64_t failed) {
  const std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
  failed_ += failed;
  names_[check] += n;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: check '%s' failed (%llu of %llu)\n",
                 check.c_str(), static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(n));
  }
}

std::vector<std::string> Checks::Names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, n] : names_) out.push_back(name);
  return out;
}

bool ParseCatalogue(std::string_view text, std::vector<MetricSpec>* out) {
  out->clear();
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view item = text.substr(0, comma);
    const std::size_t colon = item.find(':');
    if (colon == 0 || colon == std::string_view::npos ||
        colon + 1 == item.size()) {
      return false;
    }
    out->push_back({std::string(item.substr(0, colon)),
                    std::string(item.substr(colon + 1))});
    text = comma == std::string_view::npos ? std::string_view()
                                           : text.substr(comma + 1);
  }
  return !out->empty();
}

std::vector<std::string> Metrics::Names() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

std::string Metrics::Json(const std::vector<MetricSpec>& catalogue) const {
  std::string out = "{";
  char buf[64];
  for (const MetricSpec& m : catalogue) {
    const auto it = values_.find(m.name);
    if (it == values_.end()) continue;
    // %.17g keeps every digit the measurement has; JSON has no NaN/inf.
    const double v = std::isfinite(it->second) ? it->second : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

std::uint64_t Tracer::NextGeneration() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

Tracer::Buffer* Tracer::LocalBuffer() {
  thread_local std::uint64_t generation = 0;
  thread_local Buffer* buffer = nullptr;
  if (generation != generation_) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer->spans.reserve(1024);
    generation = generation_;
  }
  return buffer;
}

Tracer::SpanId Tracer::Begin(const char* name, SpanId parent,
                             std::int64_t request) {
  if (!enabled_) return kNoSpan;
  Buffer* b = LocalBuffer();
  b->spans.push_back({name, NowNanos(), 0, parent, request});
  return (static_cast<SpanId>(b->thread) << 32) |
         static_cast<SpanId>(b->spans.size() - 1);
}

void Tracer::End(SpanId id) {
  if (!enabled_ || id == kNoSpan) return;
  // Spans end on the thread that began them (RAII scopes), so the local
  // buffer is the span's own and no lock is needed.
  LocalBuffer()->spans[static_cast<std::size_t>(id & 0xffffffff)].end_ns =
      NowNanos();
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Child intervals per parent span.
  std::unordered_map<SpanId, std::vector<std::pair<std::int64_t,
                                                   std::int64_t>>>
      children;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (s.parent != kNoSpan) children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, Summary> out;
  for (const auto& b : buffers_) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const SpanId id = (static_cast<SpanId>(b->thread) << 32) |
                        static_cast<SpanId>(i);
      const std::int64_t dur = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
      std::int64_t covered = 0;
      if (const auto it = children.find(id); it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_lo = 0, cur_hi = -1;
        bool open = false;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
          } else {
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
          }
        }
        if (open) covered += cur_hi - cur_lo;
      }
      Summary& sum = out[s.name];
      ++sum.count;
      sum.total_s += static_cast<double>(dur) * 1e-9;
      sum.self_s += static_cast<double>(dur - covered) * 1e-9;
    }
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::map<std::string, Summary> summary = Summarize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  std::map<std::string, std::size_t> names;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      t0 = std::min(t0, s.start_ns);
      names.emplace(s.name, names.size());
    }
  }
  // Spans grouped by recording thread, one row each:
  // [name index, start ns, end ns, parent, request]; times relative to
  // the first span, parent a span id (thread << 32 | row) or -1.
  out << "{\"names\": [";
  std::vector<const std::string*> by_index(names.size());
  for (const auto& [name, i] : names) by_index[i] = &name;
  for (std::size_t i = 0; i < by_index.size(); ++i) {
    out << (i ? ", " : "") << "\"" << *by_index[i] << "\"";
  }
  out << "],\n\"threads\": [";
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    out << (t ? "],\n[" : "\n[");
    bool first = true;
    for (const Span& s : buffers_[t]->spans) {
      out << (first ? "" : ",") << "[" << names[s.name] << ","
          << (s.start_ns - t0) << "," << (s.end_ns - t0) << "," << s.parent
          << "," << s.request << "]";
      first = false;
    }
  }
  out << (buffers_.empty() ? "" : "]") << "],\n\"summary\": {";
  bool first = true;
  for (const auto& [name, s] : summary) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\": {\"count\": "
        << s.count << ", \"total_s\": " << s.total_s
        << ", \"self_s\": " << s.self_s << "}";
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Hashing, seeds, host
// ---------------------------------------------------------------------

void Hasher::Bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Hasher::Segment(operb::traj::ObjectId id,
                     const operb::traj::RepresentedSegment& s) {
  Value(id);
  Value(s.start.x);
  Value(s.start.y);
  Value(s.end.x);
  Value(s.end.y);
  Value(static_cast<std::uint64_t>(s.first_index));
  Value(static_cast<std::uint64_t>(s.last_index));
  Value(static_cast<std::uint8_t>((s.start_is_patch ? 1 : 0) |
                                  (s.end_is_patch ? 2 : 0)));
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + k + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<operb::traj::ObjectTrajectory> MakeFleet(std::uint64_t seed,
                                                     std::size_t objects,
                                                     std::size_t points) {
  namespace datagen = operb::datagen;
  const datagen::DatasetProfile profile =
      datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar);
  std::size_t side = 1;
  while (side * side < objects) ++side;
  constexpr double kCellMeters = 5000.0;
  std::vector<operb::traj::ObjectTrajectory> fleet;
  fleet.reserve(objects);
  for (std::size_t k = 0; k < objects; ++k) {
    datagen::Rng rng(SubSeed(seed, 0x100000 + k));
    operb::traj::Trajectory t =
        datagen::GenerateTrajectory(profile, points, &rng);
    const double dx = static_cast<double>(k % side) * kCellMeters;
    const double dy = static_cast<double>(k / side) * kCellMeters;
    const double dt = rng.Uniform(0.0, 3600.0);
    for (operb::geo::Point& p : t.mutable_points()) {
      p.x += dx;
      p.y += dy;
      p.t += dt;
    }
    fleet.push_back({static_cast<operb::traj::ObjectId>(k + 1), std::move(t)});
  }
  return fleet;
}

FitTimes FitLevels(const operb::api::SimplifierSpec& spec,
                   const std::vector<const operb::traj::Trajectory*>& objects,
                   int passes, Tracer& tracer, Checks& checks) {
  namespace simd = operb::geo::simd;
  auto made = operb::api::AlgorithmRegistry::Global().MakeStreaming(spec);
  if (!checks.Expect(made.ok(), "fit.simplifier_made")) return {};
  operb::baselines::StreamingSimplifier& fit = **made;
  std::size_t segments = 0;
  fit.SetSink([&](const operb::traj::RepresentedSegment&) { ++segments; });
  const auto pass = [&](const char* name) {
    Tracer::Scope span(tracer, name);
    const double t0 = NowSeconds();
    for (const operb::traj::Trajectory* t : objects) {
      if (t->size() < 2) continue;
      fit.Push(std::span<const operb::geo::Point>(t->points()));
      fit.Finish();
      fit.Reset();
    }
    return NowSeconds() - t0;
  };
  std::vector<double> native, scalar;
  for (int k = 0; k < passes; ++k) {
    simd::ForceLevel(simd::Detect());
    native.push_back(pass("core.fit_pass"));
    simd::ForceLevel(simd::Level::kScalar);
    scalar.push_back(pass("core.fit_pass_scalar"));
  }
  simd::ClearForcedLevel();
  checks.Expect(segments > 0, "fit.emitted");
  return {Median(native), Median(scalar)};
}

operb::geo::BoundingBox EverywhereBox() {
  operb::geo::BoundingBox b;
  b.Extend(operb::geo::Vec2{-1e15, -1e15});
  b.Extend(operb::geo::Vec2{1e15, 1e15});
  return b;
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::size_t EngineWorkers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? hc - 1 : 1;
}

std::string HostFingerprintJson() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << JsonEscape(CpuModel()) << "\", \"simd\": \""
      << operb::geo::simd::LevelName(operb::geo::simd::Detect())
      << "\", \"compiler\": \"" << JsonEscape(compiler)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

}  // namespace perfbench
