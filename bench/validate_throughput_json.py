#!/usr/bin/env python3
"""Validates BENCH_throughput.json against the operb-bench-throughput
schema (version 12). Stdlib-only so CI needs no extra packages.

Version 12 drops the facade_overhead section (the registry's OPERB
products are the core streams themselves, so there is no wrapper left to
time) and judges both timing gates on the median of paired rounds:
batched_vs_pointwise rows carry speedup_median/speedup_iqr and the
metrics_overhead row overhead_pct_median/overhead_pct_iqr, each over
the per-round ratios. Version 11 dropped the ingest, end_to_end,
concurrent_streams and store sections: perfbench (BENCHMARK.json)
measures those layers, and the store's pruning and compaction gates live
in tests/store_test.cc (StoreTest.SpreadFleetWindowPrunesThroughTheIndex).

Beyond shape checks, the checkpoint section (v6) gates on
output_match == 1: a checkpoint/restore cycle must reproduce the
uninterrupted run's output exactly. The metrics_overhead section (new in
v7) gates live obs instrumentation to at most 3% (median) over the plain
sink loop in full mode (smoke passes are microsecond-scale, so the benchmark
binary applies a looser smoke tolerance of its own; the validator
re-checks the full-mode bound only when smoke is false). The
server section (new in v8) gates the live daemon: a full-mode run must
hold at least 100k live objects, sweep at least 2 client-thread counts,
and report positive qps with p50 <= p99 query latency. The
batched_vs_pointwise section (v10; replaces v9's simd_vs_scalar)
compares OPERB's staged Push(span) with per-point Push: every row's
output hash pair must match (bit-identity is non-negotiable in smoke
and full mode alike), and in full mode the dense GeoLife row must show
the >= 2x median pointwise->batched speedup the staged path claims.

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
    "steady_state": list,
    "batched_vs_pointwise": list,
    "metrics_overhead": list,
    "checkpoint": list,
    "server": list,
}

SECTION_FIELDS = {
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
        "speedup_median": NUMBER,
        "speedup_iqr": NUMBER,
        "hash_pointwise": str,
        "hash_batched": str,
        "hash_match": int,
    },
    "metrics_overhead": {
        "algorithm": str,
        "spec": str,
        "profile": str,
        "points": int,
        "rounds": int,
        "metrics_compiled_in": int,
        "plain_points_per_sec": NUMBER,
        "instrumented_points_per_sec": NUMBER,
        "overhead_pct_median": NUMBER,
        "overhead_pct_iqr": NUMBER,
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
    if doc["schema_version"] != 12:
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
                        or entry["speedup_median"] <= 0
                        or entry["speedup_iqr"] < 0):
                    fail(f"{section}[{i}] has non-positive numbers")
                if entry["hash_match"] != 1:
                    fail(f"{section}[{i}] ({entry['name']}) pointwise "
                         "and batched output hashes diverge")
                if entry["hash_pointwise"] != entry["hash_batched"]:
                    fail(f"{section}[{i}] hash_match claims equality "
                         "but the hashes differ")
                continue
            if section == "metrics_overhead":
                # Semantic gate (schema v7; median since v12): live
                # metrics may cost the steady-state sink loop at most 3%.
                # Smoke passes are too short for the bound to be
                # meaningful.
                if (entry["points"] <= 0 or entry["rounds"] <= 0
                        or entry["plain_points_per_sec"] <= 0
                        or entry["instrumented_points_per_sec"] <= 0
                        or entry["overhead_pct_iqr"] < 0):
                    fail(f"{section}[{i}] has non-positive throughput")
                if entry["metrics_compiled_in"] not in (0, 1):
                    fail(f"{section}[{i}].metrics_compiled_in must be 0/1")
                if not doc["smoke"] and entry["overhead_pct_median"] > 3.0:
                    fail(f"{section}[{i}] median metrics overhead "
                         f"{entry['overhead_pct_median']:.1f}% exceeds the "
                         "3% gate")
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
    if not doc["smoke"] and dense[0]["speedup_median"] < 2.0:
        fail(f"dense pointwise->batched median speedup "
             f"{dense[0]['speedup_median']:.2f}x is below the 2x gate")

    algos = {e["algorithm"] for e in doc["steady_state"]}
    if len(algos) < 10:
        fail(f"steady_state covers only {len(algos)} algorithms (need 10)")
    server_threads = {e["client_threads"] for e in doc["server"]}
    if len(server_threads) < 2:
        fail("server must sweep at least 2 client-thread counts")
    # Spec strings must resolve to the algorithm they annotate.
    for section in ("steady_state", "metrics_overhead", "checkpoint",
                    "server"):
        for i, entry in enumerate(doc[section]):
            if not entry["spec"].startswith(entry["algorithm"] + ":"):
                fail(f"{section}[{i}].spec '{entry['spec']}' does not "
                     f"resolve to algorithm '{entry['algorithm']}'")
    print(f"{sys.argv[1]}: valid operb-bench-throughput v12 "
          f"({len(doc['steady_state'])} steady-state entries, "
          f"{len(batched)} batched-vs-pointwise entries, "
          f"{len(doc['checkpoint'])} checkpoint entries, "
          f"{len(doc['server'])} server entries)")


if __name__ == "__main__":
    main()
