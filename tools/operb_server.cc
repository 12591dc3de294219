// operb_server: long-running trajectory daemon (DESIGN.md §11).
//
// Owns a live StreamEngine (any registered algorithm spec) and a sealed
// trajectory store, accepts concurrent client connections over the
// length-prefixed TCP protocol (loopback only), ingests interleaved
// (id,t,x,y) streams, seals finished segments to the store in the
// background, and answers window / per-object / position-at-time
// queries with a read-your-writes merge of the sealed store and the
// in-flight per-object tails. `operb_cli --connect HOST:PORT` is the
// matching client.
//
// The daemon runs until SIGINT/SIGTERM or a client's --shutdown, then
// drains connections, checkpoints the engine (--checkpoint-out), seals
// everything to the store and writes a final metrics snapshot
// (--metrics-out).
//
// Exit codes: 0 clean shutdown, 2 usage error, 3 startup or shutdown
// I/O failure.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "flag_table.h"
#include "server/server.h"

namespace {

using namespace operb;  // NOLINT: single-file tool

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

/// Atomic write of the bound port — readers either see nothing or a
/// complete port line, never a torn file (the smoke script polls it).
bool WritePortFile(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fprintf(f, "%u\n", static_cast<unsigned>(port)) > 0;
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  options.engine.num_threads = 2;
  options.engine.num_shards = 0;  // 0 = auto (4 * threads), resolved below
  std::uint16_t port = 0;
  std::string port_file;

  using namespace tools;  // NOLINT: the row vocabulary
  constexpr unsigned kAll = kAllModes;
  constexpr std::string_view kReq = "Required:";
  constexpr std::string_view kOpt = "Optional:";
  std::vector<Flag> rows = {
      {kReq, "--store", "PATH", kAll, StringValue(&options.store_path),
       "store directory the daemon owns (created fresh)"},
      {kOpt, "--port", "N", kAll, UnsignedValue(&port, 0, 65535),
       "TCP port on 127.0.0.1 (default 0 = ephemeral)"},
      {kOpt, "--port-file", "PATH", kAll, StringValue(&port_file),
       "write the bound port to PATH (atomic temp+rename; how scripts find "
       "an ephemeral port)"},
      {kOpt, "--spec", "SPEC", kAll, SpecValue(&options.engine.spec),
       "simplifier spec, ALGORITHM[:key=value,...] (default OPERB:zeta=40; "
       "the spec's zeta is the store's zeta)"},
      {kOpt, "--threads", "N", kAll,
       UnsignedValue(&options.engine.num_threads, 1, 1024),
       "engine worker threads (default 2)"},
      {kOpt, "--shards", "N", kAll,
       UnsignedValue(&options.engine.num_shards, 0, 65536),
       "engine state-table shards (default 0 = 4 * threads)"},
      {kOpt, "--store-shards", "N", kAll,
       UnsignedValue(&options.store_shards, 1, 65536),
       "store shard count (default 4)"},
      {kOpt, "--ring-capacity", "N", kAll,
       UnsignedValue(&options.engine.ring_capacity, 1, 1u << 24),
       "per-shard ring capacity (default 8192); the BUSY flow-control "
       "threshold is 75% of it"},
      {kOpt, "--seal-interval", "SEC", kAll,
       FiniteValue(&options.seal_interval_seconds, 0.0),
       "background seal period (default 0.5; 0 seals only on demand and at "
       "shutdown)"},
      {kOpt, "--checkpoint-out", "PATH", kAll,
       StringValue(&options.final_checkpoint_path),
       "write a final engine checkpoint at shutdown"},
      {kOpt, "--metrics-out", "PATH", kAll,
       StringValue(&options.final_metrics_path),
       "write a final metrics snapshot at shutdown"},
  };
  FlagTable flags("operb_server", {"operb_server"}, std::move(rows));
  const FlagTable::Outcome outcome = flags.Parse(argc, argv);
  if (outcome == FlagTable::Outcome::kHelp) {
    flags.PrintHelp(stdout,
                    "operb_server — concurrent ingest+query trajectory "
                    "daemon (loopback TCP)");
    return kExitOk;
  }
  if (outcome == FlagTable::Outcome::kUsageError) {
    std::fprintf(stderr, "Run 'operb_server --help' for usage.\n");
    return kExitUsage;
  }
  if (options.store_path.empty()) {
    flags.Reject("--store PATH is required");
    return kExitUsage;
  }
  if (options.engine.num_shards == 0) {
    options.engine.num_shards = 4 * options.engine.num_threads;
  }

  Result<std::unique_ptr<server::TrajectoryServer>> started =
      server::TrajectoryServer::Start(options, port);
  if (!started.ok()) {
    std::fprintf(stderr, "operb_server: %s\n",
                 started.status().ToString().c_str());
    return started.status().code() == StatusCode::kInvalidArgument
               ? kExitUsage
               : kExitIo;
  }
  server::TrajectoryServer& daemon = **started;

  if (!port_file.empty() && !WritePortFile(port_file, daemon.port())) {
    std::fprintf(stderr, "operb_server: cannot write --port-file %s\n",
                 port_file.c_str());
    return kExitIo;
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  (void)sigaction(SIGINT, &sa, nullptr);
  (void)sigaction(SIGTERM, &sa, nullptr);

  std::printf("operb_server: listening on 127.0.0.1:%u  (store %s, spec "
              "%s, %llu thread(s), %llu shard(s))\n",
              static_cast<unsigned>(daemon.port()),
              options.store_path.c_str(),
              options.engine.spec.ToString().c_str(),
              static_cast<unsigned long long>(options.engine.num_threads),
              static_cast<unsigned long long>(options.engine.num_shards));
  std::fflush(stdout);

  // Wait for either a client's --shutdown verb or a signal. The sleep
  // keeps signal latency at ~50 ms without busy-waiting.
  while (g_signal == 0 && !daemon.ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const char* why = g_signal == SIGINT    ? "SIGINT"
                    : g_signal == SIGTERM ? "SIGTERM"
                                          : "client shutdown";
  std::printf("operb_server: %s — draining and sealing\n", why);
  std::fflush(stdout);

  const Status stopped = daemon.Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "operb_server: shutdown error: %s\n",
                 stopped.ToString().c_str());
    return kExitIo;
  }
  std::printf("operb_server: stopped cleanly\n");
  return kExitOk;
}
