#!/usr/bin/env python3
"""Gate and inspect dragon4 benchmark results.

Three modes:

  Baseline compare (default)
      bench_check.py <current.json> [baseline.json] [--tolerance=0.20]

      Both files are dragon4.bench.v1 documents (any bench -- engine
      batch, verify sweeps, ...).  The baseline defaults to the committed
      BENCH_engine.json next to this repository's root.  Every metric in
      the baseline's "metrics" object (ns/value, lower is better) is
      compared; a metric more than `tolerance` slower than the baseline
      is a regression and the script exits 1.  Metrics more than
      `tolerance` *faster* are reported as improvements (exit 0) -- a
      hint to refresh the committed baseline.

      Both this mode and the history gate additionally apply the
      within-run RATIO_GATES (e.g. the C ABI surface may cost at most
      10% over engine::format in the same document); a violated ratio
      fails the gate exactly like a regressed metric.

  History trend gate
      bench_check.py --history=BENCH_history.jsonl [--bench=NAME]
                     [--last=5] [--tolerance=0.20]

      The history file is one dragon4.bench.v1 document per line, as
      appended by every bench_* binary's --bench-history flag.  For each
      bench (or just NAME), the newest run's metrics are compared
      against the *median* of up to `last` prior runs, which sheds
      one-off noise that a single-baseline compare cannot.  A bench
      needs at least 2 prior runs to be gated; younger benches are
      reported as "insufficient history" and do not fail.  Exits 1 on
      any regression beyond `tolerance`.

  Per-phase differential report
      bench_check.py --diff <before_stats.json> <after_stats.json>
                     [--tolerance=X]

      Both files are dragon4.stats.v1 documents (from --stats-json= on
      the engine binaries, or obs::renderStatsJson).  Prints a per-phase
      delta table of self ticks/value, computed from the
      dragon4_phase_<name>_self_ticks_total counters divided by the
      profiled-value count (dragon4_phase_total_spans_total), plus each
      phase's share of the pipeline before and after.  Informational by
      default (exit 0); pass --tolerance to exit 1 when any phase with
      at least 5% share regresses beyond it.

The legacy flat schema (pre-v1, no "schema" key) is accepted for
baseline-compare files so older baselines keep working.

Baseline provenance: every v1 report carries context.build_type and
context.revision (bench/bench_common.h).  Both compare modes print a
warning -- the exit code is unchanged -- when the baseline lacks these
stamps, when its build type differs from the current document's, or when
`git diff --quiet <revision> HEAD -- src` says src/ changed since the
baseline was measured.
"""

import json
import os
import re
import statistics
import subprocess
import sys

SCHEMA = "dragon4.bench.v1"
STATS_SCHEMA = "dragon4.stats.v1"
DEFAULT_TOLERANCE = 0.20
DEFAULT_HISTORY_WINDOW = 5
MIN_PRIOR_RUNS = 2
# A phase must carry at least this share of total self ticks before a
# --diff regression in it can fail the gate; tiny phases are pure noise.
DIFF_GATE_MIN_SHARE = 0.05

# Within-run ratio gates: (numerator metric, denominator metric, limit).
# Both metrics come from the *same* document, so the gate is immune to
# host-speed drift between runs: it bounds an architectural overhead, not
# an absolute time.  The C ABI shim (encoding split, option mapping,
# ERR_SIZE bookkeeping) may cost at most 10% over engine::format, the
# surface it wraps; a ratio far *below* 1 is reported as a warning, since
# it means the two measurements are not measuring comparable work.
RATIO_GATES = [
    ("to_chars_ns_per_value", "engine_format_ns_per_value", 1.10),
]
RATIO_SKEW_FLOOR = 0.90

# Pipeline order for the phase table (matches src/prof/phases.h).
PHASE_ORDER = [
    "total", "decompose", "ryu_path", "estimator", "scale_setup", "fixup",
    "digit_loop", "bigint_mul", "bigint_divmod", "render", "overhead",
]

# The provenance stamps every v1 report carries (bench/bench_common.h), and
# the repository whose src/ a baseline's revision is checked against.
PROVENANCE_KEYS = ("build_type", "revision")
UNAVAILABLE = "unavailable"
REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir)

# Multi-thread batch metrics: batch_4t_ns_per_value, batch32_2t_..., etc.
# These measure the host's parallelism as much as the engine's, so they
# are only comparable when the run's thread_scaling_valid context flag
# says the host had enough cores.
MULTI_THREAD_METRIC = re.compile(r"_([0-9]+)t_")
# The widest thread count the batch benches use; the fallback for runs
# predating the explicit flag.
SCALING_MIN_CORES = 4


def is_scaling_metric(key):
    m = MULTI_THREAD_METRIC.search(key)
    return m is not None and int(m.group(1)) > 1


def thread_scaling_valid(ctx):
    """Whether a run's multi-thread metrics are comparable.

    Prefers the explicit thread_scaling_valid flag the bench emits after
    re-detecting the core count at run time; older documents fall back to
    hardware_concurrency; documents with neither are trusted (legacy
    baselines from dedicated bench hosts).
    """
    if "thread_scaling_valid" in ctx:
        return bool(ctx["thread_scaling_valid"])
    if "hardware_concurrency" in ctx:
        return ctx["hardware_concurrency"] >= SCALING_MIN_CORES
    return True


def load_metrics(path):
    """Returns (metrics dict, context dict) from either schema."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") == SCHEMA:
        return doc["metrics"], doc.get("context", {})
    if "schema" in doc:
        raise ValueError(f"{path}: unknown schema {doc['schema']!r}")
    # Legacy flat layout (pre-v1 bench_engine_batch).
    batch = doc.get("batch_ns_per_value", {})
    metrics = {
        "to_shortest_ns_per_value": doc["to_shortest_ns_per_value"],
        "engine_format_ns_per_value": doc["engine_format_ns_per_value"],
        "batch_1t_ns_per_value": batch["threads_1"],
        "batch_2t_ns_per_value": batch["threads_2"],
        "batch_4t_ns_per_value": batch["threads_4"],
    }
    context = {k: doc[k] for k in ("workload", "count", "reps",
                                   "hardware_concurrency") if k in doc}
    return metrics, context


def warn_context(current_ctx, baseline_ctx):
    if current_ctx.get("obs_sampling"):
        print("bench_check: WARNING: current run had obs sampling on; "
              "its timings include telemetry overhead")
    if current_ctx.get("spin_digit_loop"):
        print("bench_check: WARNING: current run carries an injected "
              f"spin of {current_ctx['spin_digit_loop']} per emitted "
              "character -- a regression below is expected")
    for key in ("workload", "count", "hardware_concurrency"):
        if (key in current_ctx and key in baseline_ctx
                and current_ctx[key] != baseline_ctx[key]):
            print(f"bench_check: WARNING: {key} differs "
                  f"(current {current_ctx[key]}, "
                  f"baseline {baseline_ctx[key]}) -- comparison is "
                  "apples-to-oranges")


def warn_provenance(current_ctx, baseline_ctx):
    """Warns (never fails) when the baseline may not describe this code.

    A baseline without stamps, from another build type, or measured
    before the last change under src/ still gates, but its numbers may
    belong to different code or a different optimizer setting.
    """
    missing = [k for k in PROVENANCE_KEYS
               if baseline_ctx.get(k, UNAVAILABLE) == UNAVAILABLE]
    if missing:
        print("bench_check: WARNING: baseline lacks provenance stamp(s) "
              f"{', '.join(missing)} -- cannot tell which build or "
              "revision it measured")
    base_type = baseline_ctx.get("build_type")
    cur_type = current_ctx.get("build_type")
    if base_type and cur_type and base_type != cur_type:
        print(f"bench_check: WARNING: build_type differs (current "
              f"{cur_type}, baseline {base_type}) -- comparison is "
              "apples-to-oranges")
    revision = baseline_ctx.get("revision", UNAVAILABLE)
    if revision == UNAVAILABLE:
        return
    try:
        diff = subprocess.run(["git", "-C", REPO_ROOT, "diff", "--quiet",
                               revision, "HEAD", "--", "src"],
                              capture_output=True)
        code = diff.returncode
    except OSError:
        code = None
    if code == 1:
        print(f"bench_check: WARNING: src/ changed since the baseline's "
              f"revision {revision[:12]} -- the baseline is older than "
              "the code it gates")
    elif code != 0:
        print(f"bench_check: WARNING: cannot compare src/ against the "
              f"baseline's revision {revision[:12]} (not in this "
              "repository?)")


def compare_metrics(current, baseline, tolerance, label="",
                    skip_scaling=False):
    """Prints the per-metric table; returns (regressions, improvements).

    With skip_scaling, multi-thread metrics are reported as SKIPPED
    rather than compared -- an explicit line per metric, never a silent
    pass, so a CI log always shows what was not gated and why.
    """
    regressions = []
    improvements = []
    width = max(len(k) for k in baseline)
    for key, base in sorted(baseline.items()):
        if key not in current:
            print(f"bench_check: WARNING: {key} missing from current run")
            continue
        if skip_scaling and is_scaling_metric(key):
            print(f"  {key:<{width}}  SKIPPED (thread scaling not valid "
                  "on this host)")
            continue
        cur = current[key]
        ratio = cur / base if base else float("inf")
        delta = (ratio - 1.0) * 100.0
        status = "ok"
        if ratio > 1.0 + tolerance:
            status = "REGRESSION"
            regressions.append(label + key)
        elif ratio < 1.0 - tolerance:
            status = "improved"
            improvements.append(label + key)
        print(f"  {key:<{width}}  {base:10.2f} -> {cur:10.2f} ns/value "
              f"({delta:+6.1f}%)  {status}")
    return regressions, improvements


def check_ratio_gates(metrics, label=""):
    """Applies RATIO_GATES to one run's metrics; returns failure labels.

    Gates whose metrics are absent are skipped silently (most benches
    simply do not emit them).
    """
    failures = []
    for num, den, limit in RATIO_GATES:
        if num not in metrics or den not in metrics:
            continue
        ratio = metrics[num] / metrics[den] if metrics[den] else float("inf")
        status = "ok"
        if ratio > limit:
            status = "RATIO REGRESSION"
            failures.append(f"{label}{num}/{den}")
        print(f"  ratio {num} / {den} = {ratio:.3f} "
              f"(limit {limit:.2f})  {status}")
        if ratio < RATIO_SKEW_FLOOR:
            print(f"bench_check: WARNING: {num} measures {1 - ratio:.0%} "
                  f"faster than {den}; the two loops are probably not "
                  "timing comparable work")
    return failures


def run_baseline(paths, tolerance):
    current_path = paths[0]
    baseline_path = (paths[1] if len(paths) > 1 else
                     os.path.join(os.path.dirname(__file__), os.pardir,
                                  "BENCH_engine.json"))

    current, current_ctx = load_metrics(current_path)
    baseline, baseline_ctx = load_metrics(baseline_path)
    warn_context(current_ctx, baseline_ctx)
    warn_provenance(current_ctx, baseline_ctx)
    # Either side measured on a core-starved host poisons the comparison.
    skip_scaling = (not thread_scaling_valid(current_ctx)
                    or not thread_scaling_valid(baseline_ctx))
    if skip_scaling:
        print("bench_check: multi-thread scaling metrics will be SKIPPED "
              "(thread_scaling_valid is false for this run or the "
              "baseline)")
    regressions, improvements = compare_metrics(current, baseline,
                                                tolerance,
                                                skip_scaling=skip_scaling)
    regressions.extend(check_ratio_gates(current))

    if regressions:
        print(f"bench_check: FAIL: {len(regressions)} metric(s) regressed "
              f"more than {tolerance:.0%}: {', '.join(regressions)}")
        return 1
    if improvements:
        print(f"bench_check: {len(improvements)} metric(s) improved more "
              f"than {tolerance:.0%} -- consider refreshing the committed "
              "baseline")
    print(f"bench_check: OK (tolerance {tolerance:.0%})")
    return 0


def load_history(path):
    """Returns {bench name: [v1 docs, oldest first]}."""
    runs = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                print(f"bench_check: WARNING: {path}:{lineno}: "
                      "unparsable line skipped")
                continue
            if doc.get("schema") != SCHEMA:
                print(f"bench_check: WARNING: {path}:{lineno}: "
                      f"schema {doc.get('schema')!r} skipped")
                continue
            runs.setdefault(doc.get("bench", "?"), []).append(doc)
    return runs


def run_history(path, bench_filter, window, tolerance):
    runs = load_history(path)
    if bench_filter is not None:
        if bench_filter not in runs:
            print(f"bench_check: FAIL: no runs of {bench_filter!r} "
                  f"in {path}")
            return 1
        runs = {bench_filter: runs[bench_filter]}
    if not runs:
        print(f"bench_check: FAIL: no {SCHEMA} records in {path}")
        return 1

    all_regressions = []
    gated = 0
    for bench in sorted(runs):
        docs = runs[bench]
        current = docs[-1]
        prior = docs[:-1][-window:]
        if len(prior) < MIN_PRIOR_RUNS:
            print(f"{bench}: insufficient history "
                  f"({len(prior)} prior run(s), need {MIN_PRIOR_RUNS}) "
                  "-- not gated")
            continue
        metrics = current.get("metrics", {})
        if not metrics:
            print(f"{bench}: newest run has no metrics -- not gated")
            continue
        baseline = {}
        for key in metrics:
            samples = [d["metrics"][key] for d in prior
                       if key in d.get("metrics", {})]
            if len(samples) >= MIN_PRIOR_RUNS:
                baseline[key] = statistics.median(samples)
        if not baseline:
            print(f"{bench}: no metric has {MIN_PRIOR_RUNS}+ prior "
                  "samples -- not gated")
            continue
        gated += 1
        print(f"{bench}: newest vs median of last {len(prior)} run(s)")
        warn_context(current.get("context", {}),
                     prior[-1].get("context", {}))
        warn_provenance(current.get("context", {}),
                        prior[-1].get("context", {}))
        # Any run in the comparison set from a core-starved host poisons
        # the multi-thread medians too, not just the newest numbers.
        skip_scaling = any(not thread_scaling_valid(d.get("context", {}))
                           for d in [current] + prior)
        if skip_scaling:
            print(f"{bench}: multi-thread scaling metrics SKIPPED "
                  "(thread_scaling_valid is false for a run in the "
                  "window)")
        regressions, _ = compare_metrics(metrics, baseline, tolerance,
                                         label=f"{bench}:",
                                         skip_scaling=skip_scaling)
        # The ratio gates hold within the newest run alone -- history
        # depth is irrelevant to an architectural-overhead bound.
        regressions.extend(check_ratio_gates(metrics, label=f"{bench}:"))
        all_regressions.extend(regressions)

    if all_regressions:
        print(f"bench_check: FAIL: {len(all_regressions)} metric(s) "
              f"trending more than {tolerance:.0%} above their median: "
              f"{', '.join(all_regressions)}")
        return 1
    if gated == 0:
        print("bench_check: WARNING: nothing gated (all benches lack "
              "history); treating as OK")
    print(f"bench_check: OK ({gated} bench(es) gated, "
          f"tolerance {tolerance:.0%})")
    return 0


def load_stats(path):
    """Returns (per-phase self ticks, profiled values, backend-is-perf)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != STATS_SCHEMA:
        raise ValueError(f"{path}: expected {STATS_SCHEMA}, got "
                         f"{doc.get('schema')!r}")
    counters = doc.get("counters", {})
    values = counters.get("dragon4_phase_total_spans_total", 0)
    if not values:
        raise ValueError(f"{path}: no profiled conversions "
                         "(dragon4_phase_total_spans_total is 0 or absent)"
                         " -- was the run built with DRAGON4_OBS and "
                         "sampling on?")
    ticks = {}
    for phase in PHASE_ORDER:
        t = counters.get(f"dragon4_phase_{phase}_self_ticks_total")
        if t is not None:
            ticks[phase] = t
    perf = bool(doc.get("gauges", {}).get(
        "dragon4_prof_backend_perf_event", 0))
    return ticks, values, perf


def run_diff(before_path, after_path, tolerance):
    before, before_values, before_perf = load_stats(before_path)
    after, after_values, after_perf = load_stats(after_path)

    backend = "perf_event" if before_perf else "steady_clock"
    print(f"phase differential: {before_path} -> {after_path}")
    print(f"  profiled values: {before_values} -> {after_values}, "
          f"counter backend: {backend}")
    if before_perf != after_perf:
        print("bench_check: WARNING: counter backends differ between the "
              "two runs -- tick deltas are apples-to-oranges")

    before_sum = sum(before.values()) or 1
    after_sum = sum(after.values()) or 1
    phases = [p for p in PHASE_ORDER if p in before or p in after]
    width = max(len(p) for p in phases)
    print(f"  {'phase':<{width}}  {'before':>10}  {'after':>10}  "
          f"{'delta':>8}  {'share':>15}")
    regressions = []
    for phase in phases:
        b = before.get(phase, 0) / before_values
        a = after.get(phase, 0) / after_values
        share_b = before.get(phase, 0) / before_sum
        share_a = after.get(phase, 0) / after_sum
        if b > 0:
            delta = (a / b - 1.0) * 100.0
            delta_str = f"{delta:+7.1f}%"
            if (tolerance is not None and a / b > 1.0 + tolerance
                    and max(share_b, share_a) >= DIFF_GATE_MIN_SHARE):
                regressions.append(phase)
        else:
            delta_str = "     new" if a > 0 else "       -"
        print(f"  {phase:<{width}}  {b:10.1f}  {a:10.1f}  {delta_str}  "
              f"{share_b:6.1%} -> {share_a:6.1%}")
    print("  (self ticks/value; share = fraction of summed self ticks)")

    if regressions:
        print(f"bench_check: FAIL: {len(regressions)} phase(s) regressed "
              f"more than {tolerance:.0%}: {', '.join(regressions)}")
        return 1
    if tolerance is not None:
        print(f"bench_check: OK (per-phase tolerance {tolerance:.0%})")
    return 0


def main(argv):
    tolerance = None
    history_path = None
    bench_filter = None
    window = DEFAULT_HISTORY_WINDOW
    diff = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--history="):
            history_path = arg.split("=", 1)[1]
        elif arg.startswith("--bench="):
            bench_filter = arg.split("=", 1)[1]
        elif arg.startswith("--last="):
            window = int(arg.split("=", 1)[1])
        elif arg == "--diff":
            diff = True
        elif arg.startswith("-"):
            sys.exit(__doc__)
        else:
            paths.append(arg)

    if diff:
        if history_path or len(paths) != 2:
            sys.exit(__doc__)
        return run_diff(paths[0], paths[1], tolerance)
    if history_path is not None:
        if paths:
            sys.exit(__doc__)
        return run_history(history_path, bench_filter, window,
                           tolerance if tolerance is not None
                           else DEFAULT_TOLERANCE)
    if not paths:
        sys.exit(__doc__)
    return run_baseline(paths, tolerance if tolerance is not None
                        else DEFAULT_TOLERANCE)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
