// live_mixed: the daemon. An in-process server::TrajectoryServer on
// loopback, background sealer on, preloaded with 20k live SerCar
// objects, serves exactly nproc client connections from this process:
//
//   - one open-loop ingester: 32k points/s in 64-point batches;
//   - one open-loop window refresher: 2 windows/s (a dashboard);
//   - nproc - 2 closed-loop point-query clients: 85% POSITION_AT,
//     15% QUERY_OBJECT.
//
// Open-loop requests are timed from their due time; how late the
// generator ran is reported. The only workload that crosses the wire,
// the tail snapshots and the read-your-writes merge.
//
// Checks: every reply is OK, and a point query finds a segment (it asks
// for a time the object's preload covers, so NotFound is a failure). Once the phase has ended, a sample of POSITION_AT answers
// over every object's whole sent range must equal, byte for byte, the
// reopened store's answers after Stop(). After Stop() the store's
// segment count equals the server's STATS and every object's stored
// output is within zeta of the points it was sent.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.h"
#include "datagen/rng.h"
#include "engine/stream_engine.h"
#include "eval/verifier.h"
#include "geo/bbox.h"
#include "harness.h"
#include "server/client.h"
#include "server/server.h"
#include "store/compactor.h"
#include "store/reader.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"

namespace perfbench {

namespace {

namespace api = operb::api;
namespace engine = operb::engine;
namespace geo = operb::geo;
namespace server = operb::server;
namespace store = operb::store;
namespace traj = operb::traj;

constexpr const char* kSpec = "operb:zeta=40";
constexpr std::size_t kPreloadPoints = 10;
constexpr std::size_t kBatch = 64;
constexpr double kWindowsPerSecond = 2.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Plan {
  std::vector<traj::ObjectTrajectory> fleet;
  std::vector<traj::ObjectUpdate> preload;  ///< first kPreloadPoints each
  std::vector<traj::ObjectUpdate> live;     ///< the rest, round-robin
  std::size_t batches = 0;
  double rate = 0.0;  ///< live points per second
};

Plan MakePlan(const Args& args) {
  Plan plan;
  const std::size_t objects = args.tiny ? 300 : 20000;
  plan.rate = args.tiny ? 3200.0 : 32000.0;
  plan.batches = static_cast<std::size_t>(args.seconds * plan.rate /
                                          static_cast<double>(kBatch));
  plan.batches = std::max<std::size_t>(plan.batches, 1);
  const std::size_t live_per_object =
      (plan.batches * kBatch + objects - 1) / objects;
  plan.fleet = MakeFleet(args.seed, objects, kPreloadPoints + live_per_object);
  for (std::size_t round = 0; round < kPreloadPoints + live_per_object;
       ++round) {
    auto& out = round < kPreloadPoints ? plan.preload : plan.live;
    for (const traj::ObjectTrajectory& o : plan.fleet) {
      out.push_back({o.object_id, o.trajectory[round]});
    }
  }
  plan.live.resize(plan.batches * kBatch);
  return plan;
}

server::ServerOptions ServerOptions(const Args& args,
                                    const api::SimplifierSpec& spec) {
  server::ServerOptions o;
  o.engine.spec = spec;
  o.engine.num_threads = EngineWorkers();
  o.engine.num_shards = 8;
  o.store_path = args.work_dir + "/live_store";
  o.store_shards = 4;
  // The sealer runs, but its period is twice the run, so no seal falls
  // inside the measured phase (the first seal is part of set-up, the
  // last comes with Stop()). Every seal session adds blocks that span
  // all of a store shard's objects, and nothing compacts them, so each
  // seal makes every later point query dearer (the p50 went from 0.5 to
  // 1.7 ms after one more session). With a seal every 2 s the query rate
  // fell all through the run, and with one seal mid-run the run split
  // into two regimes; either way the query figures of five or six runs
  // spread by 0.3 to 2.
  o.seal_interval_seconds = args.seconds * 2.0;
  return o;
}

/// Start + preload + barrier + first seal. Returns the server or null.
std::unique_ptr<server::TrajectoryServer> SetUp(
    const Args& args, const api::SimplifierSpec& spec, const Plan& plan,
    Tracer& tracer, Checks& checks) {
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir + "/live_store", ec);
  auto started = [&] {
    Tracer::Scope s(tracer, "server.start");
    return server::TrajectoryServer::Start(ServerOptions(args, spec), 0);
  }();
  if (!checks.Expect(started.ok(), "live_mixed.server_started")) {
    std::fprintf(stderr, "perfbench: %s\n",
                 started.status().ToString().c_str());
    return nullptr;
  }
  std::unique_ptr<server::TrajectoryServer> srv = std::move(started).value();
  {
    Tracer::Scope s(tracer, "server.preload");
    const std::span<const traj::ObjectUpdate> all(plan.preload);
    for (std::size_t off = 0; off < all.size();) {
      const std::size_t n = std::min<std::size_t>(4096, all.size() - off);
      auto accepted = srv->Ingest(all.subspan(off, n));
      if (!checks.Expect(accepted.ok(), "live_mixed.preload_ingested")) {
        return nullptr;
      }
      if (*accepted) {
        off += n;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // An all-covering window snapshots every shard: the preload is
    // processed when it returns.
    checks.Expect(srv->QueryWindow(EverywhereBox(), -kInf, kInf, false).ok(),
                  "live_mixed.preload_barrier");
  }
  {
    Tracer::Scope s(tracer, "server.first_seal");
    checks.Expect(srv->Seal().ok(), "live_mixed.first_seal");
  }
  return srv;
}

struct Samples {
  std::vector<double> ingest_due_ms;   ///< ack - due
  std::vector<double> ingest_due_s;    ///< due, seconds after the start
  std::vector<double> ingest_rtt_ms;   ///< ack - send
  std::vector<double> window_due_ms;   ///< reply - due
  std::vector<double> point_ms;        ///< both point-query kinds
  std::vector<double> point_done_s;    ///< reply, seconds after the start
  std::vector<double> position_ms;     ///< wire POSITION_AT
  std::vector<double> query_object_ms;
  std::vector<double> inproc_position_ms;
  double late_max_ms = 0.0;
  std::uint64_t busy = 0;
  std::uint64_t ingest_attempts = 0;
  std::vector<char> accepted;  ///< per live batch
  double last_ack_s = 0.0;     ///< seconds after the phase start
};

/// The tracking-engine probe (traced run only): a benchmark-owned
/// engine holding the live preload, timing the two tail-snapshot seams
/// the server's queries are built on.
void ProbeTailSnapshots(const Plan& plan, const api::SimplifierSpec& spec,
                        std::uint64_t seed, Tracer& tracer, Checks& checks,
                        Metrics& metrics) {
  engine::StreamEngineOptions o;
  o.spec = spec;
  o.num_threads = EngineWorkers();
  o.num_shards = 8;
  o.track_segment_times = true;
  auto made = engine::StreamEngine::Create(o, nullptr);
  if (!checks.Expect(made.ok(), "live_mixed.probe_engine")) return;
  engine::StreamEngine& eng = **made;
  double t0 = NowSeconds();
  {
    Tracer::Scope s(tracer, "engine.push");
    eng.Push(std::span<const traj::ObjectUpdate>(plan.preload));
    eng.Flush();
  }
  const double push_s = NowSeconds() - t0;
  std::size_t visited = 0;
  const engine::TailSnapshotVisitor visit =
      [&](traj::ObjectId, std::span<const traj::TimedSegment> tail) {
        visited += tail.empty() ? 0 : 1;
      };
  operb::datagen::Rng rng(seed);
  std::vector<double> object_ms, shard_ms;
  std::uint64_t failed = 0, attempts = 0;
  for (int k = 0; k < 400; ++k) {
    const traj::ObjectId id = 1 + rng.NextBelow(plan.fleet.size());
    Tracer::Scope s(tracer, "engine.tail_snapshot", Tracer::kNoSpan, k);
    const double q0 = NowSeconds();
    failed += eng.SnapshotObjectTail(id, visit).ok() ? 0 : 1;
    object_ms.push_back((NowSeconds() - q0) * 1e3);
    ++attempts;
  }
  for (int round = 0; round < 10; ++round) {
    for (std::size_t shard = 0; shard < o.num_shards; ++shard) {
      Tracer::Scope s(tracer, "engine.shard_tails", Tracer::kNoSpan, round);
      const double q0 = NowSeconds();
      failed += eng.SnapshotShardTails(shard, visit).ok() ? 0 : 1;
      shard_ms.push_back((NowSeconds() - q0) * 1e3);
      ++attempts;
    }
  }
  checks.Count("live_mixed.probe_snapshot", attempts, failed);
  checks.Expect(visited > 0, "live_mixed.probe_tails_visited");
  t0 = NowSeconds();
  {
    Tracer::Scope s(tracer, "engine.close");
    eng.Close();
  }
  const double close_s = NowSeconds() - t0;
  metrics.Set("engine.push_s", push_s);
  metrics.Set("engine.close_s", close_s);
  metrics.Set("engine.ring_full_stalls",
              static_cast<double>(eng.stats().ring_full_stalls));
  metrics.Set("engine.peak_live_objects",
              static_cast<double>(eng.stats().peak_live_objects));
  metrics.Set("engine.tail_snapshot_p50_ms", Median(object_ms));
  metrics.Set("engine.shard_tails_p50_ms", Median(shard_ms));
}

/// The measured phase: nproc client connections against `srv` (at least
/// one point-query client on hosts with fewer than three cores).
void RunPhase(const Args& args, const Plan& plan,
              server::TrajectoryServer& srv, Tracer& tracer, Checks& checks,
              Samples* out) {
  const std::uint16_t port = srv.port();
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  const std::size_t point_clients =
      std::max<std::size_t>(3, std::thread::hardware_concurrency()) - 2;
  std::vector<Samples> local(2 + point_clients);
  std::atomic<std::uint64_t> failed{0}, attempted{0};
  std::vector<std::thread> threads;

  // Open-loop ingester.
  threads.emplace_back([&, port] {
    Samples& s = local[0];
    auto c = server::Client::Connect("127.0.0.1", port);
    if (!c.ok()) {
      failed += plan.batches;
      attempted += plan.batches;
      return;
    }
    s.accepted.assign(plan.batches, 0);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(kBatch) /
                                      plan.rate));
    const std::span<const traj::ObjectUpdate> live(plan.live);
    for (std::size_t j = 0; j < plan.batches; ++j) {
      const Clock::time_point due = start + period * static_cast<long>(j);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      s.late_max_ms = std::max(s.late_max_ms, Ms(sent - due));
      Tracer::Scope span(tracer, "server.ingest", Tracer::kNoSpan,
                         static_cast<std::int64_t>(j));
      auto ack = c->TryIngest(live.subspan(j * kBatch, kBatch));
      const Clock::time_point done = Clock::now();
      ++attempted;
      ++s.ingest_attempts;
      if (!ack.ok()) {
        ++failed;
        continue;
      }
      if (!ack->accepted) {  // BUSY: refused, counts as failed
        ++s.busy;
        ++failed;
        continue;
      }
      s.accepted[j] = 1;
      s.ingest_due_ms.push_back(Ms(done - due));
      s.ingest_due_s.push_back(Seconds(due - start));
      s.ingest_rtt_ms.push_back(Ms(done - sent));
      s.last_ack_s = Seconds(done - start);
    }
  });

  // Open-loop window refresher: a dashboard over ~3x3 grid cells.
  threads.emplace_back([&, port] {
    Samples& s = local[1];
    auto c = server::Client::Connect("127.0.0.1", port);
    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.seconds * kWindowsPerSecond));
    if (!c.ok()) {
      failed += windows;
      attempted += windows;
      return;
    }
    operb::datagen::Rng rng(SubSeed(args.seed2, 1));
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kWindowsPerSecond));
    for (std::size_t k = 0; k < windows; ++k) {
      const traj::ObjectTrajectory& o =
          plan.fleet[rng.NextBelow(plan.fleet.size())];
      geo::BoundingBox box;
      box.Extend(geo::Vec2{o.trajectory.front().x - 6000.0,
                           o.trajectory.front().y - 6000.0});
      box.Extend(geo::Vec2{o.trajectory.front().x + 6000.0,
                           o.trajectory.front().y + 6000.0});
      const Clock::time_point due = start + period * static_cast<long>(k);
      std::this_thread::sleep_until(due);
      s.late_max_ms = std::max(s.late_max_ms, Ms(Clock::now() - due));
      Tracer::Scope span(tracer, "server.window", Tracer::kNoSpan,
                         static_cast<std::int64_t>(k));
      auto r = c->QueryWindow(box, -kInf, kInf);
      s.window_due_ms.push_back(Ms(Clock::now() - due));
      ++attempted;
      if (!r.ok() || r->empty()) ++failed;
    }
  });

  // Closed-loop point-query clients.
  for (std::size_t w = 0; w < point_clients; ++w) {
    threads.emplace_back([&, port, w] {
      Samples& s = local[2 + w];
      auto c = server::Client::Connect("127.0.0.1", port);
      if (!c.ok()) {
        ++failed;
        ++attempted;
        return;
      }
      operb::datagen::Rng rng(SubSeed(args.seed2, 100 + w));
      // In the traced run the second client alternates its POSITION_AT
      // between the wire and the in-process call, under the same load.
      const bool split = tracer.enabled() && w == 1;
      std::int64_t seq = 0;
      std::this_thread::sleep_until(start);
      while (Clock::now() < end) {
        const traj::ObjectTrajectory& o =
            plan.fleet[rng.NextBelow(plan.fleet.size())];
        const double t_lo = o.trajectory[0].t;
        const double t_hi = o.trajectory[kPreloadPoints - 1].t;
        const bool position = rng.NextDouble() < 0.85;
        const double at = rng.Uniform(t_lo, t_hi);
        const double until = rng.Uniform(at, t_hi);
        bool ok = false;
        const Clock::time_point q0 = Clock::now();
        if (position && split && (seq & 1) == 1) {
          Tracer::Scope span(tracer, "server.inproc_position_at",
                             Tracer::kNoSpan, seq);
          ok = srv.PositionAt(o.object_id, at).ok();
          s.inproc_position_ms.push_back(Ms(Clock::now() - q0));
          ++seq;
          ++attempted;
          if (!ok) ++failed;
          continue;
        }
        if (position) {
          Tracer::Scope span(tracer, "server.position_at", Tracer::kNoSpan,
                             seq);
          ok = c->PositionAt(o.object_id, at).ok();
        } else {
          Tracer::Scope span(tracer, "server.query_object", Tracer::kNoSpan,
                             seq);
          auto r = c->QueryObject(o.object_id, at, until);
          ok = r.ok() && !r->empty();
        }
        const Clock::time_point q1 = Clock::now();
        const double ms = Ms(q1 - q0);
        s.point_ms.push_back(ms);
        s.point_done_s.push_back(Seconds(q1 - start));
        (position ? s.position_ms : s.query_object_ms).push_back(ms);
        ++seq;
        ++attempted;
        if (!ok) ++failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  checks.Count("live_mixed.reply_ok", attempted.load(), failed.load());

  for (Samples& s : local) {
    const auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(out->ingest_due_ms, s.ingest_due_ms);
    append(out->ingest_due_s, s.ingest_due_s);
    append(out->ingest_rtt_ms, s.ingest_rtt_ms);
    append(out->window_due_ms, s.window_due_ms);
    append(out->point_ms, s.point_ms);
    append(out->point_done_s, s.point_done_s);
    append(out->position_ms, s.position_ms);
    append(out->query_object_ms, s.query_object_ms);
    append(out->inproc_position_ms, s.inproc_position_ms);
    out->late_max_ms = std::max(out->late_max_ms, s.late_max_ms);
    out->busy += s.busy;
    out->ingest_attempts += s.ingest_attempts;
    out->last_ack_s = std::max(out->last_ack_s, s.last_ack_s);
  }
  out->accepted = std::move(local[0].accepted);
}

/// One POSITION_AT over the wire, after the phase, with the answer kept
/// for the comparison with the stored output after Stop().
struct PositionSample {
  traj::ObjectId id = 0;
  double t = 0.0;
  geo::Point answer;
};

/// `n` seeded POSITION_AT requests over one connection, each at a time
/// within everything its object was sent. Ingest has stopped, so each
/// answer is final: it merges sealed blocks, the overlay and the live
/// tails, and must equal the stored answer once Stop() has sealed all.
std::vector<PositionSample> SamplePositions(
    std::uint16_t port, const std::vector<traj::Trajectory>& sent,
    std::size_t n, std::uint64_t seed, Checks& checks) {
  std::vector<PositionSample> out;
  auto c = server::Client::Connect("127.0.0.1", port);
  if (!checks.Expect(c.ok(), "live_mixed.sample_connected")) return out;
  operb::datagen::Rng rng(seed);
  std::uint64_t failed = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const traj::ObjectId id = 1 + rng.NextBelow(sent.size());
    const traj::Trajectory& t = sent[id - 1];
    const double at = rng.Uniform(t.front().t, t.back().t);
    auto r = c->PositionAt(id, at);
    if (!r.ok()) {
      ++failed;
      continue;
    }
    out.push_back({id, at, *r});
  }
  checks.Count("live_mixed.sample_answered", n, failed);
  return out;
}

}  // namespace

void RunLiveMixed(const Args& args, Tracer& tracer, Checks& checks,
                  Metrics& metrics) {
  auto parsed = api::SimplifierSpec::Parse(kSpec);
  if (!checks.Expect(parsed.ok(), "live_mixed.spec_parsed")) return;
  const api::SimplifierSpec spec = *parsed;
  const Plan plan = MakePlan(args);
  const std::string dir = args.work_dir + "/live_store";

  if (args.trace) {
    ProbeTailSnapshots(plan, spec, args.seed2, tracer, checks, metrics);
  }

  // Set-up five times; the last server stays up for the phase.
  std::vector<double> setup_s;
  std::unique_ptr<server::TrajectoryServer> srv;
  for (int k = 0; k < 5; ++k) {
    if (srv != nullptr) {
      checks.Expect(srv->Stop().ok(), "live_mixed.server_stopped");
      srv.reset();
    }
    const double t0 = NowSeconds();
    srv = SetUp(args, spec, plan, tracer, checks);
    setup_s.push_back(NowSeconds() - t0);
    if (srv == nullptr) return;
  }

  Samples samples;
  RunPhase(args, plan, *srv, tracer, checks, &samples);

  // What each object was actually sent: preload + accepted live batches.
  std::vector<traj::Trajectory> sent(plan.fleet.size());
  std::size_t live_points = 0;
  for (const traj::ObjectUpdate& u : plan.preload) {
    sent[u.object_id - 1].AppendUnchecked(u.point);
  }
  for (std::size_t j = 0; j < plan.batches; ++j) {
    if (j < samples.accepted.size() && samples.accepted[j] != 0) {
      for (std::size_t i = j * kBatch; i < (j + 1) * kBatch; ++i) {
        sent[plan.live[i].object_id - 1].AppendUnchecked(plan.live[i].point);
        ++live_points;
      }
    }
  }
  const std::size_t total_points = plan.preload.size() + live_points;
  const std::vector<PositionSample> positions = SamplePositions(
      srv->port(), sent, args.tiny ? 100 : 1000, SubSeed(args.seed2, 2),
      checks);

  // Stop, then the stored output must be exactly what was emitted.
  checks.Expect(srv->Stop().ok(), "live_mixed.server_stopped");
  const server::StatsBody stats = srv->Stats();
  srv.reset();
  checks.Expect(stats.ingest_points == total_points,
                "live_mixed.ingest_points_match");
  std::vector<double> open_s;
  std::unique_ptr<store::StoreReader> reader;
  for (int k = 0; k < 3; ++k) {
    const double t0 = NowSeconds();
    auto r = store::StoreReader::Open(dir);
    open_s.push_back(NowSeconds() - t0);
    if (!checks.Expect(r.ok(), "live_mixed.store_reopened")) return;
    reader = std::move(r).value();
  }
  const std::uint64_t stored = reader->segment_count();
  checks.Expect(stored == stats.segments_emitted &&
                    stored == stats.sealed_segments,
                "live_mixed.store_matches_stats");
  std::uint64_t mismatched = 0;
  for (const PositionSample& p : positions) {
    const auto want = reader->PositionAt(p.id, p.t);
    mismatched += want.ok() && want->x == p.answer.x &&
                          want->y == p.answer.y && want->t == p.answer.t
                      ? 0
                      : 1;
  }
  checks.Count("live_mixed.position_matches_store", positions.size(),
               mismatched);
  reader.reset();

  const double c0 = NowSeconds();
  const bool compacted = store::Compactor(dir).Run().ok();
  const double compact_s = NowSeconds() - c0;
  checks.Expect(compacted, "live_mixed.store_compacted");
  const double store_bytes = static_cast<double>(DirectoryBytes(dir));

  // Every object's stored output against the points it was sent.
  double worst = 0.0;
  double verify_s = 0.0;
  std::size_t patch_ends = 0;
  {
    auto reader = store::StoreReader::Open(dir);
    auto all = reader.ok() ? (*reader)->QueryWindow(EverywhereBox(), -kInf, kInf)
                           : operb::Result<std::vector<traj::TimedSegment>>(
                                 reader.status());
    if (checks.Expect(all.ok() && all->size() == stored,
                      "live_mixed.store_readable")) {
      Tracer::Scope s(tracer, "eval.verify");
      const double t0 = NowSeconds();
      std::uint64_t unbounded = 0;
      std::size_t j = 0;
      for (std::size_t k = 0; k < sent.size(); ++k) {
        traj::PiecewiseRepresentation rep;
        while (j < all->size() && (*all)[j].object_id == k + 1) {
          patch_ends += (*all)[j].segment.end_is_patch ? 1 : 0;
          rep.Append((*all)[j++].segment);
        }
        const auto v = operb::eval::VerifyErrorBound(sent[k], rep, spec.zeta);
        unbounded += v.bounded && rep.ValidateAgainst(sent[k]).ok() ? 0 : 1;
        worst = std::max(worst, v.worst_distance / spec.zeta);
      }
      verify_s = NowSeconds() - t0;
      checks.Count("live_mixed.output_bounded", sent.size(), unbounded);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const double measured = std::max(samples.last_ack_s, 1e-9);
  if (!args.trace) {
    metrics.Set("points_per_s", static_cast<double>(live_points) / measured);
    metrics.Set("compression_ratio", static_cast<double>(stored) /
                                         static_cast<double>(total_points));
    metrics.Set("bytes_per_point",
                store_bytes / static_cast<double>(total_points));
    // Point queries and ingest acks are taken per second of the phase.
    // Other tenants of a shared host lift whole seconds, and a tail
    // percentile most: pooled over the run, the query p99 of eight runs
    // spread by 0.9. So each figure is the median over the seconds of that
    // second's p50 or count, and for the p99s the lower quartile over the
    // seconds: the tail of a quiet second, which a slowdown of more than a
    // quarter of the seconds still moves.
    const auto points_by_second =
        BySecond(samples.point_ms, samples.point_done_s, args.seconds);
    std::vector<double> per_second;
    for (const std::vector<double>& g : points_by_second) {
      per_second.push_back(static_cast<double>(g.size()));
    }
    metrics.Set("query_p50_ms",
                QuantileOfQuantiles(points_by_second, 0.50, 0.5));
    metrics.Set("query_p99_ms",
                QuantileOfQuantiles(points_by_second, 0.99, 0.25));
    metrics.Set("query_qps", Median(per_second));
    metrics.Set("window_p50_ms", Quantile(samples.window_due_ms, 0.50));
    metrics.Set("ingest_p99_ms",
                QuantileOfQuantiles(BySecond(samples.ingest_due_ms,
                                             samples.ingest_due_s,
                                             args.seconds),
                                    0.99, 0.25));
    metrics.Set("setup_s", Median(setup_s));
    metrics.Set("peak_rss_mb", PeakRssMiB());
    return;
  }

  // Traced run: the span recording itself is the only tracing work on
  // the client threads; its cost per span, measured on a scratch tracer,
  // times the spans recorded, over the traced requests' total time.
  double overhead = 0.0;
  {
    Tracer scratch(true);
    const double t0 = NowSeconds();
    constexpr int kProbe = 100000;
    for (int k = 0; k < kProbe; ++k) {
      Tracer::Scope s(scratch, "probe", Tracer::kNoSpan, k);
    }
    const double per_span = (NowSeconds() - t0) / kProbe;
    double busy_ms = 0.0;
    std::size_t spans = 0;
    for (const auto* v : {&samples.point_ms, &samples.window_due_ms,
                          &samples.ingest_rtt_ms,
                          &samples.inproc_position_ms}) {
      for (const double ms : *v) busy_ms += ms;
      spans += v->size();
    }
    overhead = static_cast<double>(spans) * per_span / (busy_ms * 1e-3);
  }
  std::vector<const traj::Trajectory*> objects_in;
  for (const traj::Trajectory& t : sent) objects_in.push_back(&t);
  const FitTimes fit = FitLevels(spec, objects_in, 3, tracer, checks);
  metrics.Set("core.fit_s", fit.native_s);
  metrics.Set("geo.simd_fit_speedup", fit.scalar_s / fit.native_s);
  metrics.Set("eval.verify_s", verify_s);
  metrics.Set("eval.max_error_over_zeta", worst);
  metrics.Set("core.patch_share",
              static_cast<double>(patch_ends) /
                  static_cast<double>(std::max<std::uint64_t>(1, stored)));
  metrics.Set("store.compact_s", compact_s);
  metrics.Set("store.open_s", Median(open_s));
  metrics.Set("server.position_at_p50_ms", Quantile(samples.position_ms, 0.5));
  metrics.Set("server.position_at_p99_ms",
              Quantile(samples.position_ms, 0.99));
  metrics.Set("server.query_object_p50_ms",
              Quantile(samples.query_object_ms, 0.5));
  metrics.Set("server.ingest_p50_ms", Quantile(samples.ingest_rtt_ms, 0.5));
  metrics.Set("server.inproc_position_at_p50_ms",
              Quantile(samples.inproc_position_ms, 0.5));
  metrics.Set("server.busy_share",
              static_cast<double>(samples.busy) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, samples.ingest_attempts)));
  metrics.Set("server.seals", static_cast<double>(stats.seals));
  metrics.Set("bench.generator_late_max_ms", samples.late_max_ms);
  metrics.Set("bench.trace_overhead_share", overhead);
}

}  // namespace perfbench
