"""The benchmark's own tests, at the smoke size (every workload in seconds).

Run from the root of a source checkout:

    python3 -m unittest perfbench/test_perfbench.py

They assert that every named metric is emitted with its unit (and a sample
count on the detail line), that a run's JSONL digest repeats for one seed,
that a wrong expected digest, a broken batch/scalar cross-check, or a
tree without the library sources fails the run, and that the attribution
rejects span sets that contradict themselves.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep-theorem", "sweep-replicas", "scale-sharded", "daemon-mixed"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(HERE, "ledger.json")) as f:
    LEDGER = json.load(f)


def run(workload, trace=0, seed=7, *extra, cwd=ROOT, runner=None):
    cmd = [sys.executable, runner or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "smoke", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    detail = None
    for line in lines:
        if line.startswith("perfbench-detail "):
            detail = json.loads(line[len("perfbench-detail "):])
    return p.returncode, result, detail, p.stderr


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, listed):
        units = {m["name"]: m["unit"] for m in listed}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                rc, result, detail, err = run(workload, trace)
                self.assertEqual(rc, 0, err)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), list(units))
                for name, m in result["metrics"].items():
                    self.assertEqual(set(m), {"value", "unit"})
                    self.assertEqual(m["unit"], units[name])
                    self.assertIn("samples", detail["metrics"][name])
                for key in ("git_rev", "dirty", "build_type", "compiler", "nproc", "seed"):
                    self.assertIn(key, detail["meta"])
                self.assertEqual(detail["meta"]["build_type"], "Release")

    def test_end_to_end(self):
        self.check(0, BENCHMARK["end_to_end"])

    def test_per_layer(self):
        self.check(1, BENCHMARK["per_layer"])


class Correctness(unittest.TestCase):
    def test_digest_repeats_and_a_wrong_one_fails(self):
        _, _, first, _ = run("sweep-theorem")
        _, _, second, _ = run("sweep-theorem")
        self.assertEqual(first["digest"], second["digest"])
        rc, result, _, _ = run("sweep-theorem", 0, 7, "--expect-digest", first["digest"])
        self.assertEqual(rc, 0)
        rc, result, _, _ = run("sweep-theorem", 0, 7, "--expect-digest", "0" * 16)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])

    def test_broken_cross_check_fails(self):
        for workload in ("sweep-replicas", "daemon-mixed"):
            with self.subTest(workload=workload):
                rc, result, _, _ = run(workload, 0, 7, "--break-crosscheck")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])

    def test_refuses_without_library_sources(self):
        tree = os.path.join(ROOT, ".bench_run", "bare-tree")
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tree, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            rc, result, _, _ = run("sweep-theorem", cwd=tree,
                                   runner=os.path.join(tree, "perfbench", "run.py"))
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(tree, ignore_errors=True)


def span(id, parent, name, start, end, fanout=1):
    return json.dumps({"id": id, "parent": parent, "name": name, "start_ns": start,
                       "end_ns": end, "thread": 0, "fanout": fanout, "request": 1},
                      separators=(",", ":"))


class Attribution(unittest.TestCase):
    def check_spans(self, *spans):
        path = os.path.join(ROOT, ".bench_run", "spans-%d.jsonl" % os.getpid())
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            with open(path, "w") as f:
                f.write('{"meta":{}}\n' + "\n".join(spans) + "\n")
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                "--check-spans", path],
                               capture_output=True, text=True, timeout=600)
            return p.returncode, p.stdout + p.stderr
        finally:
            os.remove(path)

    def test_consistent_spans_pass(self):
        rc, out = self.check_spans(
            span(1, 0, "replay", 0, 1000),
            span(2, 1, "pool", 0, 900, fanout=2),
            span(3, 2, "sim.scalar", 0, 800),
            span(4, 2, "sim.scalar", 0, 900))
        self.assertEqual(rc, 0, out)
        shares = dict(line.split() for line in out.splitlines()
                      if line.startswith(("wall_s ", "residual_s ", "sim.scalar ")))
        # Pool children count at 1/2: (800 + 900) / 2 ns; the rest is residual.
        self.assertAlmostEqual(float(shares["sim.scalar"]), 850e-9, delta=1e-12)
        self.assertAlmostEqual(float(shares["residual_s"]), 150e-9, delta=1e-12)

    def test_child_longer_than_parent_fails(self):
        rc, out = self.check_spans(span(1, 0, "replay", 0, 1000),
                                   span(2, 1, "sim.scalar", 0, 2000))
        self.assertEqual(rc, 1, out)
        self.assertIn("negative self time", out)

    def test_pool_narrower_than_declared_fails(self):
        # Three children that each fill a pool declared two wide: the
        # stage sums exceed the span they split.
        rc, out = self.check_spans(
            span(1, 0, "shard.run", 0, 1000, fanout=2),
            *[span(2 + k, 1, "cache.store", 0, 1000) for k in range(3)])
        self.assertEqual(rc, 1, out)
        self.assertIn("negative self time", out)

    def test_mostly_unattributed_fails(self):
        rc, out = self.check_spans(span(1, 0, "replay", 0, 1000),
                                   span(2, 1, "sink.emit", 0, 100))
        self.assertEqual(rc, 1, out)
        self.assertIn("residual", out)


class Ledger(unittest.TestCase):
    def test_every_metric_is_mapped(self):
        self.assertEqual(set(LEDGER["end_to_end"]),
                         {m["name"] for m in BENCHMARK["end_to_end"]})
        self.assertEqual(set(LEDGER["per_layer"]),
                         {m["name"] for m in BENCHMARK["per_layer"]})
        for entry in LEDGER["per_layer"].values():
            self.assertTrue(entry["moves"] and entry["workloads"])


if __name__ == "__main__":
    unittest.main()
