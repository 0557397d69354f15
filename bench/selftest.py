"""Self-test of the benchmark: every workload and every check at a tiny size.

Usage::

    python3 bench/selftest.py

Runs each workload untraced and traced on tiny inputs, then shows that each
output check rejects a deliberately corrupted artifact, both when the check
is called directly and when the corruption happens inside a benchmark run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from docrte.docio import load_json, load_registry, write_json_atomic  # noqa: E402
from docrte.pipeline import PipelineRunner  # noqa: E402

WORK = run.WORK / "selftest"
TINY = {
    "cold-run": dict(relations=24, train=1, dev=2, test=2, seeds=2, m=3, docs=3, facts=4,
                     cassette_m=2, cassette_docs=2, reruns=1, recordings=1),
    "resume": dict(relations=24, train=2, dev=2, test=2, seeds=2, m=3, docs=2, facts=3,
                   cassette_m=2, cassette_docs=2, reruns=2, recordings=1),
    "cassette": dict(relations=16, train=1, dev=1, test=1, seeds=1, m=2, docs=3, facts=3,
                     cassette_m=2, cassette_docs=3, reruns=1, recordings=2),
}
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_bench(workload: str, trace: bool = False, cls=run.Bench) -> dict:
    return cls(workload, 7, 0, trace, makeup=TINY[workload], work_root=WORK).run()


class Workloads(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for workload in TINY:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"]
                                for m in DECLARED["per_layer" if trace else "end_to_end"]}
                    self.assertEqual({name: metric["unit"] for name, metric in result["metrics"].items()},
                                     declared)
                    for name, metric in result["metrics"].items():
                        self.assertEqual(set(metric), {"value", "unit"})
                        if not trace:
                            self.assertGreater(metric["value"], 0, name)

    def test_refuses_a_checkout_without_sources(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cold-run", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class CheckRejectsCorruption(unittest.TestCase):
    """Each check, called directly on a good run with one artifact corrupted."""

    @classmethod
    def setUpClass(cls):
        cls.work = WORK / "artifacts"
        shutil.rmtree(cls.work, ignore_errors=True)
        ops.write_inputs(cls.work, TINY["cold-run"], 3)
        config = ops.make_config(cls.work, "config.json", str(cls.work / "good"),
                                 mock={"final_drop_prob": ops.FINAL_DROP})
        PipelineRunner(config).run()
        cls.registry = load_registry(config.registry)
        cls.seeds = list(config.seeds)

    def setUp(self):
        self.run_dir = self.work / "bad"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        shutil.copytree(self.work / "good", self.run_dir)
        self.seed = self.seeds[0]

    def edit(self, rel: str, change) -> None:
        path = self.run_dir / rel.format(seed=self.seed)
        data = load_json(path)
        change(data)
        write_json_atomic(path, data)

    def test_good_run_passes(self):
        checks.check_denoise(self.run_dir, self.registry, self.seeds)
        checks.check_evaluation(self.run_dir, self.registry, self.seeds)

    def assert_rejected(self, check) -> None:
        with self.assertRaises(checks.CheckError):
            check(self.run_dir, self.registry, self.seeds)

    def test_extra_label_in_denoised_document(self):
        def add(data):
            doc = data["documents"][0]
            doc["labels"].append(dict(doc["labels"][0]))
        self.edit("denoise/denoised_{seed}.json", add)
        self.assert_rejected(checks.check_denoise)

    def test_flipped_kept_flag(self):
        self.edit("denoise/kg_{seed}.json", lambda rows: rows[0].update(kept=not rows[0]["kept"]))
        self.assert_rejected(checks.check_denoise)

    def test_wrong_document_frequency(self):
        self.edit("denoise/kg_{seed}.json", lambda rows: rows[-1].update(f_p=rows[-1]["f_p"] + 1))
        self.assert_rejected(checks.check_denoise)

    def test_wrong_threshold(self):
        def shift(rows):
            row = next(r for r in rows if r["eta"] is not None)
            row["eta"] += 0.01
        self.edit("denoise/kg_{seed}.json", shift)
        self.assert_rejected(checks.check_denoise)

    def test_dropped_document(self):
        self.edit("denoise/denoised_{seed}.json", lambda data: data["documents"].pop())
        self.assert_rejected(checks.check_denoise)

    def test_lost_prediction(self):
        def lose(preds):
            doc_id = next(d for d, rows in preds.items() if rows)
            preds[doc_id].pop()
        self.edit("eval/predictions_dev_{seed}.json", lose)
        self.assert_rejected(checks.check_evaluation)

    def test_wrong_false_negatives(self):
        self.edit("eval/test_{seed}.json", lambda s: s["rte"].update(fn=s["rte"]["fn"] + 1))
        self.assert_rejected(checks.check_evaluation)

    def test_wrong_aggregate(self):
        def bump(report):
            report["aggregate"]["dev"]["re"]["mean"] += 0.5
        path = self.run_dir / "report.json"
        data = load_json(path)
        bump(data)
        write_json_atomic(path, data)
        self.assert_rejected(checks.check_evaluation)

    def test_changed_byte(self):
        before = checks.digests(self.run_dir)
        path = self.run_dir / f"generate/synthetic_{self.seed}.json"
        path.write_bytes(path.read_bytes().replace(b'"synthetic"', b'"synthetic" '))
        with self.assertRaises(checks.CheckError):
            checks.expect_same(before, checks.digests(self.run_dir), "after corruption")


class CorruptingBench(run.Bench):
    """A benchmark run that corrupts one artifact right after operation ``kind``."""

    kind = "cold"

    def op(self, op, work, *args, **kwargs):
        result = super().op(op, work, *args, **kwargs)
        if op != self.kind:
            return result
        run_dir = args[1]
        if op == "cold":
            path = next(run_dir.glob("denoise/kg_*.json"))
            rows = load_json(path)
            rows[0]["kept"] = not rows[0]["kept"]
            write_json_atomic(path, rows)
        else:
            path = {
                "noop": run_dir / "manifests/split.json",
                "rescore": next(run_dir.glob("pseudo/pseudo_*.json")),
                "record": next(work.glob("cassette_run/generate/synthetic_*.json")),
                "replay": next(work.glob("cassette_run/generate/records_*.json")),
            }[op]
            path.write_text(path.read_text(encoding="utf-8") + " ", encoding="utf-8")
        return result


class RunRejectsCorruption(unittest.TestCase):
    """A corruption after each operation makes the whole run incorrect."""

    def test_each_operation(self):
        for kind in run.OP_METRIC:
            with self.subTest(kind=kind):
                bench = type("Corrupting", (CorruptingBench,), {"kind": kind})
                self.assertFalse(tiny_bench("cassette", cls=bench)["correct"])


if __name__ == "__main__":
    run.SETUPS = 1
    unittest.main()
