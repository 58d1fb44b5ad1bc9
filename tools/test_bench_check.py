#!/usr/bin/env python3
"""Self-test of tools/bench_check.py: every mode's gating logic and the
machine-parseability of the --diff table, exercised against synthetic
documents so the test is deterministic and needs no built binaries.

Run directly or via ctest:  python3 tools/test_bench_check.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "bench_check.py")


def bench_doc(bench="bench_x", metrics=None, context=None):
    return {"schema": "dragon4.bench.v1", "bench": bench,
            "context": context or {}, "metrics": metrics or {},
            "derived": {}}


def stats_doc(phase_ticks, values, perf=False):
    counters = {"dragon4_phase_total_spans_total": values}
    for phase, ticks in phase_ticks.items():
        counters[f"dragon4_phase_{phase}_self_ticks_total"] = ticks
        counters[f"dragon4_phase_{phase}_spans_total"] = values
    return {"schema": "dragon4.stats.v1", "counters": counters,
            "gauges": {"dragon4_prof_backend_perf_event": int(perf)},
            "derived": {}, "histograms": []}


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def path(self, name, doc):
        p = os.path.join(self.dir.name, name)
        with open(p, "w") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return p

    def run_check(self, *args):
        return subprocess.run([sys.executable, CHECK, *args],
                              capture_output=True, text=True)

    # --- baseline compare -------------------------------------------------

    def test_baseline_ok_and_regression(self):
        base = self.path("base.json",
                         bench_doc(metrics={"a_ns_per_value": 100.0}))
        ok = self.path("ok.json",
                       bench_doc(metrics={"a_ns_per_value": 110.0}))
        bad = self.path("bad.json",
                        bench_doc(metrics={"a_ns_per_value": 130.0}))
        self.assertEqual(self.run_check(ok, base).returncode, 0)
        result = self.run_check(bad, base)
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)

    def test_baseline_verify_schema_metrics_gate(self):
        # The regenerated BENCH_verify.json shape: verify_* metrics obey
        # the same lower-is-better logic as every other bench.
        base = self.path("vbase.json", bench_doc(
            "verify_sweeps",
            {"verify_binary16_exhaustive_ns_per_value": 40000.0}))
        slow = self.path("vslow.json", bench_doc(
            "verify_sweeps",
            {"verify_binary16_exhaustive_ns_per_value": 60000.0}))
        self.assertEqual(self.run_check(slow, base).returncode, 1)
        self.assertEqual(self.run_check(base, base).returncode, 0)

    # --- within-run ratio gates -------------------------------------------

    def test_ratio_gate_bounds_abi_overhead(self):
        # The C ABI surface may cost at most 10% over engine::format in
        # the same document, regardless of how the host compares to the
        # baseline run.
        base = self.path("rbase.json", bench_doc(metrics={
            "engine_format_ns_per_value": 100.0,
            "to_chars_ns_per_value": 105.0}))
        ok = self.path("rok.json", bench_doc(metrics={
            "engine_format_ns_per_value": 110.0,
            "to_chars_ns_per_value": 118.0}))  # Ratio 1.07: fine.
        result = self.run_check(ok, base)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("ratio", result.stdout)
        # Every metric within baseline tolerance, but the shim got fat:
        # the ratio gate alone must fail the run.
        fat = self.path("rfat.json", bench_doc(metrics={
            "engine_format_ns_per_value": 100.0,
            "to_chars_ns_per_value": 118.0}))
        result = self.run_check(fat, base)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("RATIO REGRESSION", result.stdout)

    def test_ratio_gate_warns_on_skew(self):
        # A shim "faster" than what it wraps means the loops are not
        # measuring comparable work: warn, don't fail.
        base = self.path("sbase.json", bench_doc(metrics={
            "engine_format_ns_per_value": 100.0,
            "to_chars_ns_per_value": 100.0}))
        skew = self.path("sskew.json", bench_doc(metrics={
            "engine_format_ns_per_value": 100.0,
            "to_chars_ns_per_value": 60.0}))
        result = self.run_check(skew, base)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("comparable work", result.stdout)

    def test_ratio_gate_applies_in_history_mode(self):
        lines = [json.dumps(bench_doc("bench_x", {
            "engine_format_ns_per_value": 100.0,
            "to_chars_ns_per_value": v})) for v in (104.0, 102.0, 103.0)]
        lines.append(json.dumps(bench_doc("bench_x", {
            "engine_format_ns_per_value": 100.0,
            "to_chars_ns_per_value": 115.0})))
        h = self.path("ratio.jsonl", "\n".join(lines) + "\n")
        result = self.run_check(f"--history={h}")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("RATIO REGRESSION", result.stdout)

    # --- thread-scaling skip logic ----------------------------------------

    def test_baseline_skips_scaling_when_flag_false(self):
        # A regressed 4t metric on a core-starved host must be SKIPPED
        # with an explicit message, while single-thread metrics still gate.
        metrics = {"batch_1t_ns_per_value": 100.0,
                   "batch_4t_ns_per_value": 30.0}
        base = self.path("base.json", bench_doc(
            metrics=metrics,
            context={"thread_scaling_valid": True,
                     "hardware_concurrency": 8}))
        cur = self.path("cur.json", bench_doc(
            metrics={"batch_1t_ns_per_value": 101.0,
                     "batch_4t_ns_per_value": 90.0},  # 3x "regression".
            context={"thread_scaling_valid": False,
                     "hardware_concurrency": 1}))
        result = self.run_check(cur, base)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("SKIPPED", result.stdout)
        self.assertIn("batch_4t_ns_per_value", result.stdout)
        # But a 1t regression on the same host still fails.
        bad = self.path("bad.json", bench_doc(
            metrics={"batch_1t_ns_per_value": 200.0,
                     "batch_4t_ns_per_value": 90.0},
            context={"thread_scaling_valid": False}))
        self.assertEqual(self.run_check(bad, base).returncode, 1)

    def test_baseline_scaling_fallback_uses_concurrency(self):
        # Documents predating the flag: hardware_concurrency < 4 implies
        # the scaling numbers are hardware-bound.
        base = self.path("base.json", bench_doc(
            metrics={"batch32_2t_ns_per_value": 50.0}))
        cur = self.path("cur.json", bench_doc(
            metrics={"batch32_2t_ns_per_value": 150.0},
            context={"hardware_concurrency": 2}))
        result = self.run_check(cur, base)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("SKIPPED", result.stdout)
        # With neither flag nor concurrency, the run is trusted and the
        # regression gates.
        legacy = self.path("legacy.json", bench_doc(
            metrics={"batch32_2t_ns_per_value": 150.0}))
        self.assertEqual(self.run_check(legacy, base).returncode, 1)

    def test_history_skips_scaling_when_any_run_invalid(self):
        lines = [json.dumps(bench_doc(
            "bench_x", {"batch_4t_ns_per_value": v},
            {"thread_scaling_valid": True})) for v in (100.0, 101.0, 99.0)]
        lines.append(json.dumps(bench_doc(
            "bench_x", {"batch_4t_ns_per_value": 300.0},
            {"thread_scaling_valid": False})))
        h = self.path("scaling.jsonl", "\n".join(lines) + "\n")
        result = self.run_check(f"--history={h}")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("SKIPPED", result.stdout)

    # --- history trend gate -----------------------------------------------

    def history(self, *values, bench="bench_x", last_context=None):
        lines = []
        for i, v in enumerate(values):
            ctx = last_context if (last_context and
                                   i == len(values) - 1) else {}
            lines.append(json.dumps(
                bench_doc(bench, {"m_ns_per_value": v}, ctx)))
        return self.path("history.jsonl", "\n".join(lines) + "\n")

    def test_history_clean_passes(self):
        h = self.history(100.0, 104.0, 98.0, 101.0)
        result = self.run_check(f"--history={h}")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("1 bench(es) gated", result.stdout)

    def test_history_detects_trend_regression(self):
        h = self.history(100.0, 104.0, 98.0, 140.0)
        result = self.run_check(f"--history={h}")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSION", result.stdout)
        # The median (100) is the comparison point, not any single run.
        self.assertIn("100.00", result.stdout)

    def test_history_median_sheds_one_off_noise(self):
        # One noisy spike in the middle must not poison the median.
        h = self.history(100.0, 500.0, 98.0, 102.0, 103.0)
        self.assertEqual(self.run_check(f"--history={h}").returncode, 0)

    def test_history_insufficient_runs_not_gated(self):
        h = self.history(100.0, 130.0)  # Only 1 prior run.
        result = self.run_check(f"--history={h}")
        self.assertEqual(result.returncode, 0)
        self.assertIn("insufficient history", result.stdout)

    def test_history_warns_on_injected_spin(self):
        h = self.history(100.0, 101.0, 99.0, 150.0,
                         last_context={"spin_digit_loop": 150})
        result = self.run_check(f"--history={h}")
        self.assertEqual(result.returncode, 1)
        self.assertIn("injected", result.stdout)

    def test_history_bench_filter(self):
        lines = [json.dumps(bench_doc("a", {"m_ns_per_value": v}))
                 for v in (100.0, 101.0, 99.0, 160.0)]
        lines += [json.dumps(bench_doc("b", {"m_ns_per_value": v}))
                  for v in (50.0, 51.0, 49.0, 50.0)]
        h = self.path("mixed.jsonl", "\n".join(lines) + "\n")
        self.assertEqual(
            self.run_check(f"--history={h}", "--bench=b").returncode, 0)
        self.assertEqual(
            self.run_check(f"--history={h}", "--bench=a").returncode, 1)
        self.assertEqual(self.run_check(f"--history={h}").returncode, 1)

    # --- baseline provenance ----------------------------------------------

    def git(self, repo, *args):
        return subprocess.run(
            ["git", "-C", repo, "-c", "user.name=bench",
             "-c", "user.email=bench@example.invalid",
             "-c", "commit.gpgsign=false", *args],
            check=True, capture_output=True, text=True).stdout.strip()

    def commit(self, repo, relpath, text):
        full = os.path.join(repo, relpath)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as f:
            f.write(text)
        self.git(repo, "add", "-A")
        self.git(repo, "commit", "-q", "-m", relpath)
        return self.git(repo, "rev-parse", "HEAD")

    def scratch_repo(self):
        """A throwaway work tree holding a copy of bench_check.py, whose
        src/ history the provenance check reads."""
        repo = os.path.join(self.dir.name, "repo")
        os.makedirs(os.path.join(repo, "tools"))
        with open(CHECK) as f:
            script = f.read()
        with open(os.path.join(repo, "tools", "bench_check.py"), "w") as f:
            f.write(script)
        self.git(repo, "init", "-q")
        return repo, os.path.join(repo, "tools", "bench_check.py")

    def run_script(self, script, *args):
        return subprocess.run([sys.executable, script, *args],
                              capture_output=True, text=True)

    def stamped(self, name, value, build_type, revision):
        return self.path(name, bench_doc(
            metrics={"a_ns_per_value": value},
            context={"build_type": build_type, "revision": revision}))

    def test_provenance_warns_on_unstamped_baseline(self):
        base = self.path("base.json",
                         bench_doc(metrics={"a_ns_per_value": 100.0}))
        cur = self.stamped("cur.json", 100.0, "RelWithDebInfo", "unavailable")
        result = self.run_check(cur, base)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("lacks provenance stamp(s) build_type, revision",
                      result.stdout)
        # "unavailable" (no work tree at run time) counts as unstamped.
        result = self.run_check(base, cur)
        self.assertIn("lacks provenance stamp(s) revision", result.stdout)

    def test_provenance_warns_on_build_type_mismatch(self):
        repo, script = self.scratch_repo()
        rev = self.commit(repo, "src/a.cpp", "int a;\n")
        base = self.stamped("base.json", 100.0, "Debug", rev)
        cur = self.stamped("cur.json", 130.0, "RelWithDebInfo", rev)
        result = self.run_script(script, cur, base)
        # The warning does not change the verdict: 30% slower still fails.
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("build_type differs", result.stdout)
        self.assertNotIn("lacks provenance", result.stdout)
        same = self.stamped("same.json", 100.0, "Debug", rev)
        result = self.run_script(script, same, base)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("WARNING", result.stdout)

    def test_provenance_warns_when_src_changed_since_baseline(self):
        repo, script = self.scratch_repo()
        old = self.commit(repo, "src/a.cpp", "int a;\n")
        new = self.commit(repo, "src/a.cpp", "int a = 1;\n")
        self.commit(repo, "docs/notes.md", "outside src/\n")
        cur = self.stamped("cur.json", 100.0, "Release", new)
        stale = self.stamped("stale.json", 100.0, "Release", old)
        result = self.run_script(script, cur, stale)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("src/ changed since the baseline's revision "
                      + old[:12], result.stdout)
        # A change outside src/ leaves the baseline current.
        fresh = self.stamped("fresh.json", 100.0, "Release", new)
        result = self.run_script(script, cur, fresh)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("WARNING", result.stdout)
        # A revision this repository does not know is reported, not fatal.
        alien = self.stamped("alien.json", 100.0, "Release", "0" * 40)
        result = self.run_script(script, cur, alien)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("cannot compare src/", result.stdout)

    def test_provenance_applies_in_history_mode(self):
        repo, script = self.scratch_repo()
        old = self.commit(repo, "src/a.cpp", "int a;\n")
        self.commit(repo, "src/a.cpp", "int a = 1;\n")
        ctx = {"build_type": "Release", "revision": old}
        lines = [json.dumps(bench_doc("b", {"m_ns_per_value": v}, ctx))
                 for v in (100.0, 101.0, 99.0, 100.0)]
        h = self.path("stamped.jsonl", "\n".join(lines) + "\n")
        result = self.run_script(script, f"--history={h}")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("src/ changed since the baseline's revision",
                      result.stdout)

    # --- per-phase differential -------------------------------------------

    DIFF_ROW = re.compile(r"^\s+(\w+)\s+([\d.]+)\s+([\d.]+)\s+"
                          r"([+-][\d.]+)%\s+([\d.]+)% ->\s+([\d.]+)%$")

    def test_diff_table_parses_back(self):
        before = self.path("before.json", stats_doc(
            {"total": 100_000, "digit_loop": 500_000,
             "bigint_divmod": 300_000, "render": 50_000}, 1000))
        after = self.path("after.json", stats_doc(
            {"total": 100_000, "digit_loop": 650_000,
             "bigint_divmod": 300_000, "render": 50_000}, 1000))
        result = self.run_check("--diff", before, after)
        self.assertEqual(result.returncode, 0, result.stderr)

        rows = {}
        for line in result.stdout.splitlines():
            m = self.DIFF_ROW.match(line)
            if m:
                rows[m.group(1)] = m.groups()[1:]
        self.assertIn("digit_loop", rows)
        before_tpv, after_tpv, delta = rows["digit_loop"][:3]
        self.assertAlmostEqual(float(before_tpv), 500.0)
        self.assertAlmostEqual(float(after_tpv), 650.0)
        self.assertAlmostEqual(float(delta), 30.0)
        # Unchanged phases read +0.0%, and the backend line is present.
        self.assertAlmostEqual(float(rows["render"][2]), 0.0)
        self.assertIn("steady_clock", result.stdout)

    def test_diff_tolerance_gates_major_phase_only(self):
        before = self.path("b.json", stats_doc(
            {"digit_loop": 500_000, "render": 1_000}, 1000))
        # digit_loop +30% (major share) and render +300% (noise share).
        after = self.path("a.json", stats_doc(
            {"digit_loop": 650_000, "render": 4_000}, 1000))
        result = self.run_check("--diff", before, after,
                                "--tolerance=0.25")
        self.assertEqual(result.returncode, 1)
        self.assertIn("digit_loop", result.stdout.splitlines()[-1])
        self.assertNotIn("render", result.stdout.splitlines()[-1])
        # Within tolerance: the same documents pass a looser gate.
        self.assertEqual(
            self.run_check("--diff", before, after,
                           "--tolerance=0.40").returncode, 0)

    def test_diff_rejects_unprofiled_document(self):
        empty = self.path("empty.json", stats_doc({}, 0))
        other = self.path("other.json", stats_doc({"total": 1}, 1))
        result = self.run_check("--diff", empty, other)
        self.assertNotEqual(result.returncode, 0)


if __name__ == "__main__":
    unittest.main()
