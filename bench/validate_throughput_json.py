#!/usr/bin/env python3
"""Validates BENCH_throughput.json against the operb-bench-throughput
schema (version 10). Stdlib-only so CI needs no extra packages.

Beyond shape checks, the store section carries semantic gates: the
R-tree index must never skip fewer blocks than the flat footer scan, the
two scan modes must match the same segments, the index may touch at most
25% of the nodes the flat scan visits (footers), and compaction must not
change the window query's answer. The checkpoint section (v6) gates on
output_match == 1: a checkpoint/restore cycle must reproduce the
uninterrupted run's output exactly. The metrics_overhead section (new in
v7) gates live obs instrumentation to at most 3% over the plain sink
loop in full mode (smoke passes are microsecond-scale, so the benchmark
binary applies a looser smoke tolerance before the JSON is written; the
validator re-checks the full-mode bound only when smoke is false). The
server section (new in v8) gates the live daemon: a full-mode run must
hold at least 100k live objects, sweep at least 2 client-thread counts,
and report positive qps with p50 <= p99 query latency. The
batched_vs_pointwise section (v10; replaces v9's simd_vs_scalar)
compares OPERB's staged Push(span) with per-point Push: every row's
output hash pair must match (bit-identity is non-negotiable in smoke
and full mode alike), and in full mode the dense GeoLife row must show
the >= 2x pointwise->batched speedup the staged path claims.

Usage: validate_throughput_json.py PATH
Exit codes: 0 valid, 1 invalid, 2 usage/IO error.
"""

import json
import sys

NUMBER = (int, float)

TOP_LEVEL = {
    "schema": str,
    "schema_version": int,
    "smoke": bool,
    "unix_time": int,
    "zeta": NUMBER,
    "seed": int,
    "ingest": list,
    "steady_state": list,
    "batched_vs_pointwise": list,
    "end_to_end": list,
    "concurrent_streams": list,
    "facade_overhead": list,
    "metrics_overhead": list,
    "store": list,
    "checkpoint": list,
    "server": list,
}

SECTION_FIELDS = {
    "ingest": {
        "format": str,
        "profile": str,
        "points": int,
        "bytes": int,
        "passes": int,
        "seconds_per_pass": NUMBER,
        "points_per_sec": NUMBER,
        "mb_per_sec": NUMBER,
    },
    "steady_state": {
        "algorithm": str,
        "spec": str,
        "profile": str,
        "points": int,
        "segments": int,
        "passes": int,
        "seconds_per_pass": NUMBER,
        "points_per_sec": NUMBER,
    },
    "batched_vs_pointwise": {
        "name": str,
        "points": int,
        "rounds": int,
        "pointwise_points_per_sec": NUMBER,
        "batched_points_per_sec": NUMBER,
        "speedup": NUMBER,
        "hash_pointwise": str,
        "hash_batched": str,
        "hash_match": int,
    },
    "end_to_end": {
        "pipeline": str,
        "algorithm": str,
        "spec": str,
        "profile": str,
        "points": int,
        "passes": int,
        "seconds_per_pass": NUMBER,
        "points_per_sec": NUMBER,
    },
    "concurrent_streams": {
        "algorithm": str,
        "spec": str,
        "live_objects": int,
        "threads": int,
        "shards": int,
        "points": int,
        "segments": int,
        "passes": int,
        "seconds_per_pass": NUMBER,
        "points_per_sec": NUMBER,
    },
    "facade_overhead": {
        "algorithm": str,
        "spec": str,
        "profile": str,
        "points": int,
        "direct_points_per_sec": NUMBER,
        "facade_points_per_sec": NUMBER,
        "overhead_pct": NUMBER,
    },
    "metrics_overhead": {
        "algorithm": str,
        "spec": str,
        "profile": str,
        "points": int,
        "metrics_compiled_in": int,
        "plain_points_per_sec": NUMBER,
        "instrumented_points_per_sec": NUMBER,
        "overhead_pct": NUMBER,
    },
    "store": {
        "algorithm": str,
        "spec": str,
        "objects": int,
        "points": int,
        "segments": int,
        "blocks": int,
        "file_bytes": int,
        "shards": int,
        "index_nodes": int,
        "write_amplification": NUMBER,
        "write_passes": int,
        "write_seconds_per_pass": NUMBER,
        "write_segments_per_sec": NUMBER,
        "open_seconds_per_pass": NUMBER,
        "window_query_seconds": NUMBER,
        "window_blocks_skipped": int,
        "window_blocks_scanned": int,
        "window_index_nodes_visited": int,
        "window_segments_matched": int,
        "flat_window_query_seconds": NUMBER,
        "flat_window_blocks_skipped": int,
        "flat_window_blocks_scanned": int,
        "flat_window_segments_matched": int,
        "reconstruct_seconds": NUMBER,
        "reconstruct_segments": int,
        "compact_seconds": NUMBER,
        "compact_shards_compacted": int,
        "compact_write_amplification": NUMBER,
        "compact_blocks_before": int,
        "compact_blocks_after": int,
        "compact_files_before": int,
        "compact_files_after": int,
        "post_compact_open_seconds": NUMBER,
        "post_compact_window_segments_matched": int,
    },
    "checkpoint": {
        "algorithm": str,
        "spec": str,
        "objects": int,
        "points": int,
        "prefix_points": int,
        "live_states": int,
        "threads": int,
        "shards": int,
        "checkpoint_bytes": int,
        "checkpoint_bytes_per_state": NUMBER,
        "checkpoint_write_passes": int,
        "checkpoint_write_seconds_per_pass": NUMBER,
        "restore_seconds": NUMBER,
        "segments": int,
        "output_match": int,
    },
    "server": {
        "algorithm": str,
        "spec": str,
        "live_objects": int,
        "ingest_points": int,
        "ingest_seconds": NUMBER,
        "ingest_points_per_sec": NUMBER,
        "client_threads": int,
        "queries": int,
        "query_qps": NUMBER,
        "query_p50_ms": NUMBER,
        "query_p99_ms": NUMBER,
        "seals": int,
        "backpressure_rejects": int,
    },
}


def fail(msg):
    print(f"validate_throughput_json: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    try:
        with open(sys.argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {sys.argv[1]}: {e}")

    if not isinstance(doc, dict):
        fail("top level is not an object")
    for key, typ in TOP_LEVEL.items():
        if key not in doc:
            fail(f"missing top-level key '{key}'")
        if not isinstance(doc[key], typ) or (
            typ is int and isinstance(doc[key], bool)
        ):
            fail(f"top-level key '{key}' has wrong type")
    if doc["schema"] != "operb-bench-throughput":
        fail(f"unexpected schema '{doc['schema']}'")
    if doc["schema_version"] != 10:
        fail(f"unexpected schema_version {doc['schema_version']}")

    for section, fields in SECTION_FIELDS.items():
        entries = doc[section]
        if not entries:
            fail(f"section '{section}' is empty")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                fail(f"{section}[{i}] is not an object")
            for key, typ in fields.items():
                if key not in entry:
                    fail(f"{section}[{i}] missing key '{key}'")
                if not isinstance(entry[key], typ) or isinstance(
                    entry[key], bool
                ):
                    fail(f"{section}[{i}].{key} has wrong type")
            if section == "batched_vs_pointwise":
                # Semantic gates (schema v10). Bit-identity first: the
                # pointwise and batched output hashes must agree in
                # every mode — a diverging hash means the staged path
                # changed the algorithm's output, which no speedup
                # excuses.
                if (entry["points"] <= 0 or entry["rounds"] <= 0
                        or entry["pointwise_points_per_sec"] <= 0
                        or entry["batched_points_per_sec"] <= 0
                        or entry["speedup"] <= 0):
                    fail(f"{section}[{i}] has non-positive numbers")
                if entry["hash_match"] != 1:
                    fail(f"{section}[{i}] ({entry['name']}) pointwise "
                         "and batched output hashes diverge")
                if entry["hash_pointwise"] != entry["hash_batched"]:
                    fail(f"{section}[{i}] hash_match claims equality "
                         "but the hashes differ")
                continue
            if section == "facade_overhead":
                if (entry["points"] <= 0
                        or entry["direct_points_per_sec"] <= 0
                        or entry["facade_points_per_sec"] <= 0):
                    fail(f"{section}[{i}] has non-positive throughput")
                continue
            if section == "metrics_overhead":
                # Semantic gate (schema v7): live metrics may cost the
                # steady-state sink loop at most 3%. Smoke passes are
                # too short for the bound to be meaningful.
                if (entry["points"] <= 0
                        or entry["plain_points_per_sec"] <= 0
                        or entry["instrumented_points_per_sec"] <= 0):
                    fail(f"{section}[{i}] has non-positive throughput")
                if entry["metrics_compiled_in"] not in (0, 1):
                    fail(f"{section}[{i}].metrics_compiled_in must be 0/1")
                if not doc["smoke"] and entry["overhead_pct"] > 3.0:
                    fail(f"{section}[{i}] metrics overhead "
                         f"{entry['overhead_pct']:.1f}% exceeds the 3% "
                         "gate")
                continue
            if section == "store":
                if (entry["blocks"] <= 0 or entry["file_bytes"] <= 0
                        or entry["segments"] <= 0
                        or entry["shards"] <= 0
                        or entry["index_nodes"] <= 0
                        or entry["write_amplification"] <= 0
                        or entry["write_passes"] <= 0
                        or entry["write_seconds_per_pass"] <= 0
                        or entry["open_seconds_per_pass"] <= 0
                        or entry["window_query_seconds"] <= 0
                        or entry["flat_window_query_seconds"] <= 0
                        or entry["reconstruct_seconds"] <= 0
                        or entry["compact_seconds"] <= 0
                        or entry["compact_write_amplification"] <= 0
                        or entry["post_compact_open_seconds"] <= 0):
                    fail(f"{section}[{i}] has non-positive store numbers")
                if entry["window_blocks_skipped"] < 1:
                    fail(f"{section}[{i}] window query skipped no blocks "
                         "(footer pruning broken)")
                if (entry["window_blocks_skipped"]
                        + entry["window_blocks_scanned"]
                        != entry["blocks"]):
                    fail(f"{section}[{i}] skip/scan counts do not cover "
                         "the block count")
                # Index soundness and pruning gates (schema v5): the
                # R-tree must skip at least as many blocks as the flat
                # footer scan, agree with it on the matched segments,
                # and visit at most 25% as many index nodes as the flat
                # scan visits footers.
                if (entry["window_blocks_skipped"]
                        < entry["flat_window_blocks_skipped"]):
                    fail(f"{section}[{i}] R-tree skipped fewer blocks "
                         "than the flat footer scan")
                if (entry["window_segments_matched"]
                        != entry["flat_window_segments_matched"]):
                    fail(f"{section}[{i}] R-tree and flat scan matched "
                         "different segment counts")
                flat_footers = (entry["flat_window_blocks_skipped"]
                                + entry["flat_window_blocks_scanned"])
                if entry["window_index_nodes_visited"] * 4 > flat_footers:
                    fail(f"{section}[{i}] R-tree visited "
                         f"{entry['window_index_nodes_visited']} nodes "
                         f"against {flat_footers} flat-scanned footers "
                         "(over the 25% gate)")
                if (entry["post_compact_window_segments_matched"]
                        != entry["window_segments_matched"]):
                    fail(f"{section}[{i}] compaction changed the window "
                         "query's answer")
                if entry["compact_files_after"] > entry["compact_files_before"]:
                    fail(f"{section}[{i}] compaction grew the file count")
                continue
            if section == "server":
                # Semantic gates (schema v8): the daemon must have held
                # a real live fleet (>= 100k objects in full mode),
                # served every query, and reported ordered latency
                # percentiles. backpressure_rejects may be any
                # non-negative count — BUSY is flow control, not
                # failure.
                if (entry["live_objects"] <= 0
                        or entry["ingest_points"] <= 0
                        or entry["ingest_seconds"] <= 0
                        or entry["ingest_points_per_sec"] <= 0
                        or entry["client_threads"] <= 0
                        or entry["queries"] <= 0
                        or entry["query_qps"] <= 0
                        or entry["query_p50_ms"] <= 0
                        or entry["query_p99_ms"] <= 0):
                    fail(f"{section}[{i}] has non-positive server numbers")
                if entry["query_p50_ms"] > entry["query_p99_ms"]:
                    fail(f"{section}[{i}] p50 exceeds p99")
                if entry["seals"] < 0 or entry["backpressure_rejects"] < 0:
                    fail(f"{section}[{i}] has negative counters")
                if not doc["smoke"] and entry["live_objects"] < 100000:
                    fail(f"{section}[{i}] full-mode run held only "
                         f"{entry['live_objects']} live objects "
                         "(need >= 100000)")
                continue
            if section == "checkpoint":
                # Semantic gates (schema v6): the snapshot must exist and
                # cost something, every live state must fit in it, the
                # restore must be timed, and — the acceptance gate — the
                # resumed run must have reproduced the uninterrupted
                # run's output exactly.
                if (entry["points"] <= 0
                        or entry["prefix_points"] <= 0
                        or entry["prefix_points"] >= entry["points"]
                        or entry["live_states"] <= 0
                        or entry["checkpoint_bytes"] <= 0
                        or entry["checkpoint_bytes_per_state"] <= 0
                        or entry["checkpoint_write_passes"] <= 0
                        or entry["checkpoint_write_seconds_per_pass"] <= 0
                        or entry["restore_seconds"] <= 0
                        or entry["segments"] <= 0):
                    fail(f"{section}[{i}] has non-positive checkpoint "
                         "numbers")
                if entry["checkpoint_bytes"] < entry["live_states"]:
                    fail(f"{section}[{i}] checkpoint smaller than one "
                         "byte per live state")
                if entry["output_match"] != 1:
                    fail(f"{section}[{i}] resumed output did not match "
                         "the uninterrupted run")
                continue
            if entry["points"] <= 0 or entry["points_per_sec"] <= 0:
                fail(f"{section}[{i}] has non-positive throughput")
            if entry["passes"] <= 0 or entry["seconds_per_pass"] <= 0:
                fail(f"{section}[{i}] has non-positive timing")

    batched = doc["batched_vs_pointwise"]
    if len(batched) < 5:
        fail(f"batched_vs_pointwise has only {len(batched)} rows (need "
             "the 4 stock profiles plus the dense variant)")
    dense = [e for e in batched if "dense" in e["name"]]
    if not dense:
        fail("batched_vs_pointwise is missing the dense-profile row")
    # Timing gate: full mode only (smoke passes are microseconds).
    if not doc["smoke"] and dense[0]["speedup"] < 2.0:
        fail(f"dense pointwise->batched speedup "
             f"{dense[0]['speedup']:.2f}x is below the 2x gate")

    algos = {e["algorithm"] for e in doc["steady_state"]}
    if len(algos) < 10:
        fail(f"steady_state covers only {len(algos)} algorithms (need 10)")
    for i, entry in enumerate(doc["concurrent_streams"]):
        if entry["threads"] <= 0 or entry["shards"] <= 0:
            fail(f"concurrent_streams[{i}] has non-positive threads/shards")
        if entry["live_objects"] <= 0:
            fail(f"concurrent_streams[{i}] has non-positive live_objects")
    thread_counts = {e["threads"] for e in doc["concurrent_streams"]}
    if len(thread_counts) < 2:
        fail("concurrent_streams must sweep at least 2 thread counts")
    server_threads = {e["client_threads"] for e in doc["server"]}
    if len(server_threads) < 2:
        fail("server must sweep at least 2 client-thread counts")
    # Spec strings must resolve to the algorithm they annotate.
    for section in ("steady_state", "end_to_end", "concurrent_streams",
                    "facade_overhead", "metrics_overhead", "store",
                    "checkpoint", "server"):
        for i, entry in enumerate(doc[section]):
            if not entry["spec"].startswith(entry["algorithm"] + ":"):
                fail(f"{section}[{i}].spec '{entry['spec']}' does not "
                     f"resolve to algorithm '{entry['algorithm']}'")
    print(f"{sys.argv[1]}: valid operb-bench-throughput v10 "
          f"({len(doc['steady_state'])} steady-state entries, "
          f"{len(batched)} batched-vs-pointwise entries, "
          f"{len(doc['concurrent_streams'])} concurrent-stream entries, "
          f"{len(doc['store'])} store entries, "
          f"{len(doc['checkpoint'])} checkpoint entries, "
          f"{len(doc['server'])} server entries)")


if __name__ == "__main__":
    main()
