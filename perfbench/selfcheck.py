#!/usr/bin/env python3
"""Tiny-input self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. Builds the benchmark (through run.py),
then runs every workload of BENCHMARK.json on tiny inputs, untraced and
traced, plus live_mixed untraced (a workload of the binary that
BENCHMARK.json leaves out; its traced part runs inside the traced
fleet_archive run), and asserts that:

  - the run exits 0 and its last stdout line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  - every output check passed, and every check this script names for the
    workload actually ran (the record line lists the checks that ran);
  - the metrics are exactly the end-to-end catalogue (untraced) or the
    per-layer catalogue (traced) of BENCHMARK.json, each with its unit
    and a finite number;
  - no end-to-end value is 0, and no per-layer value on the workload's
    path (the record line lists them) is 0, except the counts of events
    a healthy run may not have (MAY_BE_ZERO);
  - every per-layer metric is on the path of at least one workload.

Exits 1 and names the failures otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

COMMON = ["metric.emitted", "metric.known"]
# Per-layer metrics that count adverse events: 0 is a healthy reading.
MAY_BE_ZERO = {"engine.ring_full_stalls", "server.busy_share"}
CHECKS = {
    ("file_batch", 0): [
        "file_batch.spec_parsed", "file_batch.replay_parsed",
        "file_batch.replay_verified", "file_batch.pipeline_built",
        "file_batch.report_verified", "file_batch.replay_hash_matches"],
    ("file_batch", 1): [
        "file_batch.pipeline_built", "file_batch.report_verified",
        "file_batch.spec_parsed", "file_batch.replay_parsed",
        "file_batch.replay_simplifier", "file_batch.replay_verified",
        "file_batch.replay_hash_matches", "fit.simplifier_made",
        "fit.emitted", "trace.written"],
    ("fleet_archive", 0): [
        "fleet_archive.spec_parsed", "fleet_archive.pipeline_built",
        "fleet_archive.pipeline_ran", "fleet_archive.matches_single_stream",
        "fleet_archive.output_bounded", "fleet_archive.engine_deterministic",
        "fleet_archive.store_opened_before_compaction",
        "fleet_archive.store_count_before_compaction",
        "fleet_archive.store_holds_output_before_compaction",
        "fleet_archive.compacted",
        "fleet_archive.store_opened_after_compaction",
        "fleet_archive.store_count_after_compaction",
        "fleet_archive.store_holds_output_after_compaction",
        "fleet_archive.reopened", "fleet_archive.query_answer"],
    ("fleet_archive", 1): [
        "fleet_archive.pipeline_built", "fleet_archive.pipeline_ran",
        "fleet_archive.spec_parsed", "fleet_archive.replay_grouped",
        "fleet_archive.replay_store_created",
        "fleet_archive.replay_engine_created",
        "fleet_archive.replay_store_closed",
        "fleet_archive.replay_hash_matches",
        "fleet_archive.engine_deterministic",
        "fleet_archive.matches_single_stream",
        "fleet_archive.store_holds_output_before_compaction",
        "fleet_archive.reopened_uncompacted", "fleet_archive.compacted",
        "fleet_archive.store_holds_output_after_compaction",
        "fleet_archive.reopened", "fleet_archive.query_answer",
        "fleet_archive.output_bounded", "fit.simplifier_made",
        "fit.emitted", "trace.written",
        # The traced fleet run also runs live_mixed for the server layer.
        "live_mixed.spec_parsed", "live_mixed.probe_engine",
        "live_mixed.probe_snapshot", "live_mixed.probe_tails_visited",
        "live_mixed.server_started", "live_mixed.reply_ok",
        "live_mixed.sample_answered", "live_mixed.position_matches_store",
        "live_mixed.store_matches_stats", "live_mixed.ingest_points_match",
        "live_mixed.output_bounded"],
    ("live_mixed", 0): [
        "live_mixed.spec_parsed", "live_mixed.server_started",
        "live_mixed.preload_ingested", "live_mixed.preload_barrier",
        "live_mixed.first_seal", "live_mixed.server_stopped",
        "live_mixed.reply_ok", "live_mixed.sample_connected",
        "live_mixed.sample_answered", "live_mixed.position_matches_store",
        "live_mixed.store_reopened",
        "live_mixed.store_matches_stats", "live_mixed.ingest_points_match",
        "live_mixed.store_compacted", "live_mixed.store_readable",
        "live_mixed.output_bounded"],

}


def run(workload, trace, errors):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    tag = f"{workload} --trace {trace}"
    if p.returncode != 0:
        errors.append(f"{tag}: exit {p.returncode}: {p.stderr[-2000:]}")
        return None, None
    lines = p.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        errors.append(f"{tag}: unreadable output ({e})")
        return None, None
    return record, result


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    errors = []
    measured_somewhere = set()
    runs = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    for name, trace in runs + [("live_mixed", 0)]:
        if (name, trace) not in CHECKS:
            errors.append(f"{name} --trace {trace}: no checks named")
            continue
        record, result = run(name, trace, errors)
        if result is None:
            continue
        tag = f"{name} --trace {trace}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{tag}: result keys {sorted(result)}")
        if not (result.get("correct") is True and result["failed"] == 0
                and result["attempted"] >= 1):
            errors.append(f"{tag}: checks failed: {result}")
        ran = set(record.get("checks", []))
        expected = COMMON + (["metric.off_path"] if trace else [])
        for check in expected + CHECKS[(name, trace)]:
            if check not in ran:
                errors.append(f"{tag}: check {check} did not run")
        on_path = record.get("on_path", []) if trace else []
        measured_somewhere.update(on_path)
        catalogue = spec["per_layer" if trace else "end_to_end"]
        metrics = result.get("metrics", {})
        if list(metrics) != [m["name"] for m in catalogue]:
            errors.append(f"{tag}: metrics {list(metrics)}")
        for m in catalogue:
            got = metrics.get(m["name"])
            if got is None:
                continue
            if got.get("unit") != m["unit"]:
                errors.append(f"{tag}: {m['name']} unit {got.get('unit')}")
            v = got.get("value")
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                errors.append(f"{tag}: {m['name']} value {v}")
            elif v == 0 and (not trace or (m["name"] in on_path and
                                          m["name"] not in MAY_BE_ZERO)):
                errors.append(f"{tag}: {m['name']} is 0")
        print(f"selfcheck: {tag}: {len(metrics)} metrics, "
              f"{len(ran)} checks, {result['attempted']} attempted",
              file=sys.stderr)
    for m in spec["per_layer"]:
        if m["name"] not in measured_somewhere:
            errors.append(f"{m['name']} is on no workload's path")
    for e in errors:
        print("selfcheck: FAIL " + e, file=sys.stderr)
    print("selfcheck: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
