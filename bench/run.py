"""Benchmark for the docrte pipeline: end-to-end timings and per-module spans.

Usage::

    python3 bench/run.py --workload cold-run --seed 1 --seconds 20 --trace 0

Runs offline against the package's mock transports, on inputs generated from
``--seed``.  Every operation runs in a fresh child process (``ops.py``) and
is checked against a computation made here (``checks.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import FINAL_DROP, RESCORE_DROP, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

OP_METRIC = {"cold": "cold_run_s", "noop": "noop_rerun_s", "rescore": "rescore_s",
             "record": "record_s", "replay": "replay_s"}
END_TO_END = {"setup_s": "s", "cold_run_s": "s", "run_dir_mb": "MB", "noop_rerun_s": "s",
              "rescore_s": "s", "record_s": "s", "replay_s": "s", "peak_rss_mb": "MB"}
SETUPS = 3        # set-ups per run; setup_s is their median
MIN_ROUNDS = 2    # the hash-seed check needs two cold runs, tracing one untraced round
OP_TIMEOUT = 150  # seconds

GENERATED = ("generate/synthetic_{seed}.json", "generate/records_{seed}.json")
KEPT_BY_RESCORE = ("generate/synthetic_{seed}.json", "pseudo/pseudo_{seed}.json",
                   "denoise/denoised_{seed}.json")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_yield", "_precision")):
        return "ratio"
    return "count"


def disk_mb(path: Path) -> float:
    """Bytes in a file or directory tree, in MB."""
    if path.is_file():
        return path.stat().st_size / 1e6
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


class OperationFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 makeup: dict | None = None, work_root: Path = WORK):
        self.makeup = makeup or WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.base = work_root / f"{workload}-{seed}"
        self.errors: list[str] = []
        self._ops = 0

    # -- child processes -----------------------------------------------------

    def op(self, op: str, work: Path, traced: bool = False, run_dir: Path | None = None,
           final_drop: float | None = None, hashseed: int | None = None) -> dict:
        self._ops += 1
        spec = {"op": op, "work": str(work), "makeup": self.makeup, "seed": self.seed,
                "trace": traced, "run_dir": str(run_dir) if run_dir else None,
                "final_drop": final_drop,
                "spans": str(self.base / "spans" / f"{self._ops:04d}-{op}.json")}
        spec_path, result_path = self.base / "spec.json", self.base / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        env = dict(os.environ)
        if hashseed is not None:
            env["PYTHONHASHSEED"] = str(hashseed)
        proc = subprocess.run([sys.executable, str(BENCH / "ops.py"), str(spec_path), str(result_path)],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=OP_TIMEOUT)
        if proc.returncode != 0:
            raise OperationFailed(f"{op} exited with {proc.returncode}: {proc.stderr.strip()[-600:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def check(self, what: str, fn, *args) -> None:
        from checks import CheckError

        try:
            fn(*args)
        except CheckError as exc:
            self.errors.append(f"{what}: {exc}")
            print(f"CHECK FAILED {what}: {exc}", file=sys.stderr)

    # -- the run ---------------------------------------------------------------

    def setup(self) -> tuple[Path, list[float]]:
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        times = []
        for k in range(SETUPS):
            work = self.base / f"setup{k}"
            times.append(self.op("setup", work)["seconds"])
            if k:
                shutil.rmtree(self.base / f"setup{k - 1}")
        return work, times

    def run(self) -> dict:
        import checks
        import tracing
        from docrte.config import config_from_dict
        from docrte.docio import load_json, load_registry

        work, setup_times = self.setup()
        self.config = config_from_dict(load_json(work / "config.json"), base_dir=work)
        self.registry = load_registry(self.config.registry)
        self.seeds = list(self.config.seeds)
        cassette_seed = load_json(work / "config_cassette.json")["seeds"][0]
        self.generated = [p.format(seed=cassette_seed) for p in GENERATED]
        self.reference = checks.digests(work / "cassette_run", include=self.generated)
        self.first_cold: dict[str, str] | None = None
        self._truth: dict[int, dict] = {}
        plan = (["cold"] + ["noop", "rescore"] * self.makeup["reruns"]
                + ["record", "replay"] * self.makeup["recordings"])

        samples: dict[str, list[float]] = {m: [] for m in OP_METRIC.values()}
        op_rss: dict[str, list[float]] = {kind: [] for kind in OP_METRIC}
        op_mb: dict[str, list[float]] = {kind: [] for kind in OP_METRIC}
        rss_rounds = []
        round_seconds: dict[bool, list[float]] = {True: [], False: []}
        layer_rounds: list[dict[str, float]] = []
        attempted = failed = rounds = 0
        started = time.monotonic()
        while rounds < MIN_ROUNDS or time.monotonic() - started < self.seconds:
            traced = self.trace and rounds % 2 == 0
            shutil.rmtree(work / "runs", ignore_errors=True)
            run_dir = work / "runs" / f"cold{rounds}"
            layers = dict.fromkeys(tracing.layer_totals([]), 0.0)
            layers["backends.cassette_bytes"] = 0
            quality = {"removed": 0, "removed_spurious": 0, "added": 0, "added_true": 0}
            rss, total = [], 0.0
            drop = FINAL_DROP
            for kind in plan:
                attempted += 1
                before = {}
                if kind == "noop":
                    before = checks.digests(run_dir)
                elif kind == "rescore":
                    before = checks.digests(run_dir, include=[
                        p.format(seed=s) for s in self.seeds for p in KEPT_BY_RESCORE])
                    drop = RESCORE_DROP if drop == FINAL_DROP else FINAL_DROP
                try:
                    res = self.op(kind, work, traced, run_dir, drop,
                                  hashseed=rounds + 1 if kind == "cold" else None)
                except (OperationFailed, subprocess.TimeoutExpired) as exc:
                    failed += 1
                    print(f"OPERATION FAILED: {exc}", file=sys.stderr)
                    continue
                samples[OP_METRIC[kind]].append(res["seconds"])
                rss.append(res["rss_mb"])
                op_rss[kind].append(res["rss_mb"])
                op_mb[kind].append(disk_mb(run_dir) if kind in ("cold", "noop", "rescore")
                                   else disk_mb(work / "cassette_run") + disk_mb(work / "cassette.json"))
                total += res["seconds"]
                self.check_op(kind, res, work, run_dir, before, f"round {rounds} {kind}")
                if traced:
                    for key, value in res["layers"].items():
                        layers[key] += value
                    if kind == "record":
                        layers["backends.cassette_bytes"] = res["cassette_bytes"]
                    if kind == "cold":
                        quality = checks.denoise_quality(run_dir, self.seeds,
                                                         lambda s: self.truth(run_dir, s))
            round_seconds[traced].append(total)
            rss_rounds.append(max(rss, default=0.0))
            if traced:
                layer_rounds.append(self.finish_layers(layers, quality))
            rounds += 1

        # only the spans of a traced run are kept
        for path in self.base.iterdir():
            if path.is_dir() and path.name != "spans":
                shutil.rmtree(path)
            elif path.is_file():
                path.unlink()
        if self.trace:
            metrics = {name: statistics.median(r[name] for r in layer_rounds)
                       for name in layer_rounds[0]}
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(round_seconds[True]) / statistics.median(round_seconds[False]) - 1.0)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = {"setup_s": statistics.median(setup_times),
                       "run_dir_mb": statistics.median(op_mb["cold"]),
                       "peak_rss_mb": statistics.median(rss_rounds)}
            metrics.update({m: statistics.median(v) for m, v in samples.items()})
            units = END_TO_END
            self.summary(setup_times, samples, op_rss, op_mb, rss_rounds)
        return {
            "correct": not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
        }

    def check_op(self, kind: str, res: dict, work: Path, run_dir: Path, before: dict, where: str) -> None:
        """Every check that applies after operation ``kind``."""
        import checks

        statuses = {status for _, status in res["outcomes"]}
        if kind == "cold":
            self.check(where, checks.expect, statuses == {"ran"}, "not every stage ran")
            artifacts = checks.digests(run_dir, exclude=("manifests", "effective_config.json"))
            if self.first_cold is None:
                self.first_cold = artifacts
            else:
                self.check(where, checks.expect_same, self.first_cold, artifacts,
                           "cold runs under different PYTHONHASHSEEDs")
            self.check(where, checks.check_denoise, run_dir, self.registry, self.seeds)
            self.check(where, checks.check_evaluation, run_dir, self.registry, self.seeds)
        elif kind == "noop":
            self.check(where, checks.expect, statuses == {"skipped"}, "a stage ran")
            self.check(where, checks.expect_same, before, checks.digests(run_dir), "no-op rerun")
        elif kind == "rescore":
            self.check(where, checks.expect, ["evaluate", "ran"] in res["outcomes"],
                       "evaluate did not rerun after its setting changed")
            self.check(where, checks.expect_same, before,
                       checks.digests(run_dir, include=list(before)), "rescore")
            self.check(where, checks.check_evaluation, run_dir, self.registry, self.seeds)
        else:
            self.check(where, checks.expect_same, self.reference,
                       checks.digests(work / "cassette_run", include=self.generated),
                       f"generate outputs after {kind}")

    def truth(self, run_dir: Path, seed: int) -> dict:
        """True facts per document of the uncorrupted mock corpus for ``seed``."""
        if seed not in self._truth:
            from docrte.simulate import mock_generation_corpus
            from docrte.split import load_split_spec

            spec = load_split_spec(run_dir / f"split/spec_{seed}.json")
            _, truth, _ = mock_generation_corpus(
                self.registry, sorted(spec.unseen), sorted(spec.seen), seed,
                self.config.docs_per_relation, self.config.n_related, self.config.mock)
            self._truth[seed] = {
                doc.doc_id: {(doc.entities[lb.head].key, doc.entities[lb.tail].key, lb.relation)
                             for lb in doc.labels}
                for doc in truth.documents
            }
        return self._truth[seed]

    @staticmethod
    def finish_layers(layers: dict[str, float], quality: dict[str, int]) -> dict[str, float]:
        """Add one round's ratios to its sums."""
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return dict(layers, **{
            "generate.chain_yield": ratio(layers["generate.chains"] - layers["generate.chains_failed"],
                                          layers["generate.chains"]),
            "denoise.removed_precision": ratio(quality["removed_spurious"], quality["removed"]),
            "denoise.added_precision": ratio(quality["added_true"], quality["added"]),
        })

    @staticmethod
    def summary(setup_times, samples, op_rss, op_mb, rss_rounds) -> None:
        """Human-readable lines: each metric's median, quartiles and sample
        count, then peak RSS and bytes on disk after each kind of operation."""
        rows = {"setup_s": setup_times, **samples, "run_dir_mb": op_mb["cold"],
                "peak_rss_mb": rss_rounds}
        for name, values in rows.items():
            line = f"{name:<14} median {statistics.median(values):10.4f}  n={len(values)}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  q1 {q1:.4f}  q3 {q3:.4f}"
            print(line)
        for kind in OP_METRIC:
            print(f"{kind:<8} peak RSS {statistics.median(op_rss[kind]):7.1f} MB  "
                  f"on disk {statistics.median(op_mb[kind]):8.3f} MB")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="docrte pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "docrte" / "__init__.py").is_file():
        print(f"error: no docrte sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
