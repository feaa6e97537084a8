#!/usr/bin/env python3
"""CI bench-regression gate.

Runs the BENCH_SMOKE=1 benches listed in BENCHES, parses the flat
bench::Record JSON blob each bench prints after its table, and compares
record[key] for every key of the bench's smoke[<smoke key>] map in its
committed baseline file (BENCH_pr2.json ... BENCH_pr10.json). A tracked
metric that lands more than --threshold (default 15%) below its baseline
fails the gate; the merged run report is written to --out for upload as a
workflow artifact. A bench that crashes, hangs past its timeout or prints no
JSON is recorded as a failure, the remaining benches still run and print,
and the gate exits non-zero.

All tracked metrics come from the simulated LogGP clock, so they are
machine-independent; residual variance comes only from thread interleaving
(lock/CAS retry counts). A metric that regresses on the first run gets one
re-run, and the better value counts -- a real regression fails twice.

Refresh the baselines after an intentional perf change with:
    python3 tools/check_bench.py --build-dir build --update-baselines
which raises a baseline to its minimum over --baseline-runs runs only when
that minimum clears the committed value by RAISE_FACTOR, and never lowers one.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


# (bench binary, baseline file, smoke key). Each bench prints one flat
# bench::Record; the gate reads record[key] for every key of the baseline's
# smoke[smoke_key] map, so gating one more metric is one more key there.
# Every tracked metric is higher-is-better.
BENCHES = [
    # OLTP point-read qps per mix: serial txn-per-query vs BatchScope groups.
    ("bench_pr2_async_oltp", "BENCH_pr2.json", "async_oltp"),
    # insert_many over serial inserts, and bulk-load rate at 1/8 provisioning.
    ("bench_pr3_dht_growth", "BENCH_pr3.json", "dht_growth"),
    # Cold vs warm (shared-cache) qps per mix over a hot set.
    ("bench_pr4_cached_oltp", "BENCH_pr4.json", "cached_oltp"),
    # Batched heavy-edge fetch: speedup over serial holder fetches and the
    # mean number of holders one batch covers.
    ("bench_pr4_edge_batch", "BENCH_pr4.json", "edge_batch"),
    # The group-commit write-stream win and the write-through
    # read-after-own-write hit rate, plus the absolute pr5-mode throughputs so
    # a regression in the new path fails even if the baseline path regresses
    # in lockstep.
    ("bench_pr5_group_commit", "BENCH_pr5.json", "group_commit"),
    # Absolute WAL-on write-stream throughput, the on/off ratio (catches the
    # WAL's modeled overhead creeping up even if the whole write path speeds
    # up), and the group-fsync amortization factor (appends per fsync ~
    # commits per flush epoch -- a drop means the epoch log stopped riding
    # the pipeline).
    ("bench_pr6_wal", "BENCH_pr6.json", "wal"),
    # Absolute scheduler-mode throughput, the scheduler/eager ratio at 8
    # tenants (catches the coalescing or epoch-sharing win eroding even if
    # both modes drift together), and the 2Q hot-set hit rate under HTAP scan
    # interference (the scan-resistance win of the admission policy).
    ("bench_pr7_server", "BENCH_pr7.json", "server"),
    # Probe flatness (compacted probe rounds per lookup at 1 shard over 26
    # shards -- 1.0 means lookup cost is independent of shard count, the
    # partition's core guarantee), the churn stream's capacity-reclaim
    # fraction (freed slots reused by later allocations instead of
    # stranding), and the absolute churn-stream throughput.
    ("bench_pr8_churn", "BENCH_pr8.json", "churn"),
    # Three completion fractions with an expected value of exactly 1.0 --
    # wall-clock socket throughput is machine-dependent, but "every admitted
    # request is answered exactly once" is not: the committed fraction over
    # plain socket streams, the fast tenants' fraction while a slow reader
    # stalls its own window (backpressure isolation), and the committed
    # fraction under seeded corrupt/truncate/disconnect/reorder churn with
    # reconnect-replay.
    ("bench_pr9_net", "BENCH_pr9.json", "net"),
    # Two fractions with an expected value of exactly 1.0: the committed
    # fraction across a pre-ack server kill + recover-integrated restart (no
    # admitted increment lost or double-executed), and the replay hit rate --
    # every completed write replayed at the recovered server answered from
    # the WAL-rebuilt reply cache, never re-executed. The bench binary also
    # exits nonzero unless both are exactly 1.0 and at least one kill fired.
    ("bench_pr10_recovery", "BENCH_pr10.json", "recovery"),
]

# --update-baselines raises a committed baseline only when the new minimum
# is at least this factor above it, and never lowers one.
RAISE_FACTOR = 1.25

BENCH_TIMEOUT_S = 1800


class BenchError(Exception):
    """A bench that could not produce metrics (missing, crashed, hung, no
    JSON). The gate records it as a failure and goes on with the remaining
    benches."""


def run_bench(build_dir, name):
    """Run one bench in smoke mode and return its bench::Record as a dict."""
    exe = pathlib.Path(build_dir) / name
    if not exe.exists():
        raise BenchError(f"bench binary not found: {exe}")
    env = dict(os.environ, BENCH_SMOKE="1")
    try:
        proc = subprocess.run([str(exe)], capture_output=True, text=True,
                              env=env, timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {BENCH_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError(f"exited with {proc.returncode}")
    marker = proc.stdout.find("JSON:")
    if marker < 0:
        raise BenchError("printed no JSON blob")
    try:
        record, _ = json.JSONDecoder().raw_decode(
            proc.stdout[marker + len("JSON:"):].lstrip())
    except json.JSONDecodeError as e:
        raise BenchError(f"printed a malformed JSON blob: {e}") from None
    return record


def tracked(record, keys):
    """The tracked metrics of one bench run: record[key] for each key."""
    out = {}
    for key in keys:
        val = record.get(key)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise BenchError(f"run is missing tracked metric {key}")
        out[key] = val
    return out


def write_step_summary(report, regressions):
    """Render the gate's per-metric comparison as a markdown table into
    $GITHUB_STEP_SUMMARY (the Actions job-summary pane) when it is set; a
    no-op everywhere else."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "## Bench smoke gate",
        "",
        f"Threshold: metrics must stay within {report['threshold'] * 100:.0f}% "
        "of the committed smoke baselines (higher is better).",
        "",
        "| bench | metric | measured | baseline | ratio | status |",
        "| --- | --- | ---: | ---: | ---: | --- |",
    ]
    for name, entry in report["benches"].items():
        if "error" in entry:
            lines.append(f"| {name} | - | - | - | - | :x: {entry['error']} |")
            continue
        if "metrics" not in entry:  # --update-baselines run
            continue
        for key, row in entry["metrics"].items():
            status = ":white_check_mark:" if row["ok"] else ":x: regression"
            lines.append(
                f"| {name} | {key} | {row['run']:.4g} | {row['baseline']:.4g} "
                f"| {row['ratio'] * 100:.1f}% | {status} |")
    lines.append("")
    lines.append("All tracked metrics within threshold." if not regressions
                 else f"**{len(regressions)} failure(s).**")
    lines.append("")
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def gate_bench(bench, args, report, regressions):
    """Run one bench and gate (or, with --update-baselines, refresh) its
    tracked metrics; raises BenchError when the bench yields none."""
    name, baseline_file, smoke_key = bench
    baseline_path = REPO / baseline_file
    baseline_doc = json.loads(baseline_path.read_text())
    base = baseline_doc.get("smoke", {}).get(smoke_key)
    if not base:
        sys.exit(f"error: {baseline_path.name} has no smoke baselines "
                 f"for {smoke_key}")
    record = run_bench(args.build_dir, name)
    metrics = tracked(record, base)

    if args.update_baselines:
        # Per-metric minimum over several runs: with higher-is-better
        # metrics, a conservative baseline spends none of the threshold on
        # interleaving noise. A baseline only ever rises, and only by a
        # clear margin, so a noisy refresh cannot loosen the gate.
        for _ in range(max(args.baseline_runs - 1, 0)):
            extra = tracked(run_bench(args.build_dir, name), base)
            for key, val in extra.items():
                metrics[key] = min(metrics[key], val)
        raised = {key: val for key, val in metrics.items()
                  if val >= base[key] * RAISE_FACTOR}
        for key, val in metrics.items():
            verdict = "raised" if key in raised else "kept"
            print(f"{name:26s} {key:30s} min {val:>12.4g} vs committed "
                  f"{base[key]:>12.4g}  {verdict}")
        if raised:
            base.update(raised)
            baseline_path.write_text(json.dumps(baseline_doc, indent=2) + "\n")
        report["benches"][name] = {"run": metrics, "raised": sorted(raised)}
        return

    rows = {}
    rerun = None
    for key, base_val in base.items():
        val = metrics[key]
        if val < base_val * (1.0 - args.threshold) and rerun is None:
            # One re-run absorbs interleaving noise; keep the better value.
            rerun = tracked(run_bench(args.build_dir, name), base)
        if rerun is not None:
            val = max(val, rerun[key])
        ratio = val / base_val if base_val else float("inf")
        ok = val >= base_val * (1.0 - args.threshold)
        rows[key] = {"run": val, "baseline": base_val,
                     "ratio": round(ratio, 4), "ok": ok}
        status = "ok " if ok else "REGRESSION"
        print(f"{name:26s} {key:30s} {val:>14.4g} vs {base_val:>14.4g} "
              f"({ratio * 100:6.1f}%)  {status}")
        if not ok:
            regressions.append(f"{name}: {key} {ratio * 100:.1f}% of baseline")
    report["benches"][name] = {"metrics": rows, "json": record}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--out", default="bench_smoke.json",
                    help="merged run report (workflow artifact)")
    ap.add_argument("--update-baselines", action="store_true",
                    help="instead of gating, raise each smoke baseline to the "
                         "per-metric minimum over --baseline-runs runs when "
                         f"that minimum is >= {RAISE_FACTOR * 100:.0f}%% of "
                         "the committed value; "
                         "never lower one")
    ap.add_argument("--baseline-runs", type=int, default=5,
                    help="runs per bench when updating baselines; the per-"
                         "metric minimum is recorded so interleaving noise "
                         "eats into the threshold as little as possible")
    args = ap.parse_args()

    report = {"threshold": args.threshold, "benches": {}}
    regressions = []

    for bench in BENCHES:
        name = bench[0]
        try:
            gate_bench(bench, args, report, regressions)
        except BenchError as e:
            print(f"{name:26s} FAILED: {e}")
            report["benches"][name] = {"error": str(e)}
            regressions.append(f"{name}: {e}")

    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    write_step_summary(report, regressions)
    print(f"\nreport written to {args.out}")
    if regressions:
        print("\nbench gate failures (crashes, or > {:.0f}% below baseline):"
              .format(args.threshold * 100))
        for r in regressions:
            print(f"  {r}")
        return 1
    print("bench gate: all tracked metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
