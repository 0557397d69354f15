"""How the mock pipeline scales with the number of documents: sizes M and L.

Both sizes use the demo inputs with 120 relations, seeds 11, 23 and 37,
m=20 and the mock world; L has twice the documents and twice the world facts
of M, so near-linear code takes about twice as long.  The cold run is one
``PipelineRunner.run()``, as the CLI's ``run-all`` makes it, so generated
corpora are handed from stage to stage in memory; the script times each
stage around the runner's ``run_stage`` calls.  Then a second runner makes a
no-op ``run()``.  Each size runs in a child process of its own, so its peak
RSS is its alone.  The script prints per-stage wall time, the total, the
no-op rerun and the MB it hashed, peak RSS (after each stage of the cold run,
and at the end), the bytes in the run directory
(in all and per top-level folder) and the line count of ``src/docrte``.

Not collected by the default test run (its file name does not match
``test_*.py``).  Run it on its own::

    python tests/bench_scaling.py          # M, then L
    python tests/bench_scaling.py L
"""
from __future__ import annotations

import json
import logging
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # run from the source checkout

# size -> (documents per unseen relation, world facts per relation)
SIZES = {"M": (100, 50), "L": (200, 100)}
N_RELATIONS = 120
SEEDS = [11, 23, 37]
M_UNSEEN = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(size: str, work: Path) -> dict:
    from docrte import pipeline
    from docrte.config import config_from_dict, strip_json_comments
    from docrte.pipeline import STAGE_ORDER, PipelineRunner
    from docrte.simulate import write_demo_inputs

    docs, facts = SIZES[size]
    write_demo_inputs(work, n_relations=N_RELATIONS)
    data = json.loads(strip_json_comments((work / "config.json").read_text(encoding="utf-8")))
    data.update(m=M_UNSEEN, seeds=SEEDS, docs_per_relation=docs,
                mock={"facts_per_relation": facts})
    config = config_from_dict(data, base_dir=work)
    runner = PipelineRunner(config)
    stages, stage_rss = {}, {}
    run_stage = runner.run_stage

    def timed(stage, force=False):
        started = time.perf_counter()
        try:
            return run_stage(stage, force)
        finally:
            stages[stage] = time.perf_counter() - started
            stage_rss[stage] = peak_rss_mb()

    runner.run_stage = timed  # run() looks the method up on the instance
    started = time.perf_counter()
    outcomes = runner.run()
    total = time.perf_counter() - started
    if [o.stage for o in outcomes if o.status == "ran"] != list(STAGE_ORDER):
        raise RuntimeError(f"the cold run skipped stages: {outcomes}")
    hashed = []
    file_digest = pipeline.file_digest

    def counting(path):
        hashed.append(Path(path).stat().st_size)
        return file_digest(path)

    pipeline.file_digest = counting
    started = time.perf_counter()
    outcomes = PipelineRunner(config).run()
    noop = time.perf_counter() - started
    pipeline.file_digest = file_digest
    if any(o.status != "skipped" for o in outcomes):
        raise RuntimeError(f"the no-op rerun ran stages: {outcomes}")
    run_dir = Path(config.run_dir)
    folders: dict[str, float] = {}
    for path in run_dir.rglob("*"):
        if path.is_file():
            parts = path.relative_to(run_dir).parts
            top = parts[0] + "/" if len(parts) > 1 else "top-level files"
            folders[top] = folders.get(top, 0.0) + path.stat().st_size / 1e6
    return {
        "size": size,
        "stages_s": stages,
        "total_s": total,
        "noop_s": noop,
        "noop_hashed_mb": sum(hashed) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "stage_peak_rss_mb": stage_rss,
        "run_dir_mb": sum(folders.values()),
        "folders_mb": dict(sorted(folders.items())),
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src" / "docrte").glob("*.py"))


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        logging.getLogger("docrte").setLevel(logging.ERROR)
        with tempfile.TemporaryDirectory(prefix="docrte-scaling-") as tmp:
            print(json.dumps(measure(argv[1], Path(tmp))))
        return
    sizes = argv or list(SIZES)
    unknown = [s for s in sizes if s not in SIZES]
    if unknown:
        raise SystemExit(f"unknown size {unknown[0]!r}; choose from {', '.join(SIZES)}")
    results = []
    for size in sizes:
        child = subprocess.run([sys.executable, __file__, "--child", size],
                               check=True, capture_output=True, text=True)
        results.append(json.loads(child.stdout.splitlines()[-1]))
    rows = [(f"{stage} (s)", [r["stages_s"][stage] for r in results])
            for stage in results[0]["stages_s"]]
    rows += [(f"peak RSS after {stage} (MB)", [r["stage_peak_rss_mb"][stage] for r in results])
             for stage in results[0]["stage_peak_rss_mb"]]
    rows += [(label, [r[key] for r in results])
             for label, key in (("total (s)", "total_s"), ("no-op rerun (s)", "noop_s"),
                                ("no-op hashed (MB)", "noop_hashed_mb"),
                                ("peak RSS (MB)", "peak_rss_mb"), ("run dir (MB)", "run_dir_mb"))]
    rows += [(f"  {folder} (MB)", [r["folders_mb"].get(folder, 0.0) for r in results])
             for folder in results[0]["folders_mb"]]
    print(f"{'':<44}" + "".join(f"{r['size']:>10}" for r in results))
    for label, values in rows:
        print(f"{label:<44}" + "".join(f"{v:>10.2f}" for v in values))
    totals = {r["size"]: r["total_s"] for r in results}
    if len(totals) == 2:
        print(f"L / M total: {totals['L'] / totals['M']:.2f}x")
    print(f"src/docrte: {src_lines()} lines")
    print(json.dumps({"sizes": SIZES, "results": results, "src_lines": src_lines()}))


if __name__ == "__main__":
    main(sys.argv[1:])
