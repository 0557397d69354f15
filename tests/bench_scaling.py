"""How the mock pipeline scales with the number of documents: sizes M and L,
and the source side at train sources of 4,800 and 24,000 documents.

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

The ``sources`` mode measures the two stages that read the DocRED sources,
split and finetune-data.  Its sources are drawn as ``bench/ops.py``'s
``write_inputs`` draws them (``simulate.build_world`` and ``world_documents``
over 120 relations, three facts per document): a train source of 4,800 or
24,000 documents and dev and test sources of 1,200 each, with seeds 11, 23
and 37, m=6 and relation groups of 10.  The sources are written in one child
process, then split and finetune-data each run alone in a fresh one; the
script prints each stage's wall time, peak RSS and the MB it wrote.

Not collected by the default test run (its file name does not match
``test_*.py``).  Run it on its own::

    python tests/bench_scaling.py          # M, then L
    python tests/bench_scaling.py L
    python tests/bench_scaling.py sources  # 4800, then 24000 train documents
    python tests/bench_scaling.py sources 4800
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
# train documents -> documents per relation in the train, dev and test sources
SOURCE_SIZES = {"4800": (40, 10, 10), "24000": (200, 10, 10)}
SOURCE_STAGES = {"split": "split", "finetune-data": "finetune"}  # stage -> folder it writes


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


def write_sources(size: str, work: Path) -> None:
    """The demo config and registry, with sources of ``size`` in place of the demo's."""
    from conftest import write_world_sources
    from docrte.config import strip_json_comments
    from docrte.simulate import synthetic_registry, write_demo_inputs

    write_demo_inputs(work, n_relations=N_RELATIONS)
    write_world_sources(work, synthetic_registry(N_RELATIONS), {
        name: (per_relation, world_seed) for world_seed, (name, per_relation)
        in enumerate(zip(("train", "dev", "test"), SOURCE_SIZES[size]))})
    data = json.loads(strip_json_comments((work / "config.json").read_text(encoding="utf-8")))
    data.update(m=6, seeds=SEEDS, group_size=10)
    (work / "config.json").write_text(json.dumps(data), encoding="utf-8")


def measure_stage(stage: str, work: Path) -> dict:
    """Run ``stage`` alone on the sources in ``work``: its time, peak RSS and MB written."""
    from docrte.config import load_config
    from docrte.pipeline import PipelineRunner

    runner = PipelineRunner(load_config(work / "config.json"))
    started = time.perf_counter()
    outcomes = runner.run([stage])
    elapsed = time.perf_counter() - started
    if [(o.stage, o.status) for o in outcomes] != [(stage, "ran")]:
        raise RuntimeError(f"{stage} did not run: {outcomes}")
    written = runner.path(SOURCE_STAGES[stage]).rglob("*")
    return {"s": elapsed, "peak_rss_mb": peak_rss_mb(),
            "written_mb": sum(p.stat().st_size for p in written if p.is_file()) / 1e6}


def child_json(*args: str) -> dict:
    """The JSON object on the last line that ``bench_scaling.py args`` prints in a child."""
    child = subprocess.run([sys.executable, __file__, *args], check=True, capture_output=True,
                           text=True)
    return json.loads(child.stdout.splitlines()[-1])


def main_sources(sizes: list[str]) -> None:
    unknown = [s for s in sizes if s not in SOURCE_SIZES]
    if unknown:
        raise SystemExit(f"unknown source size {unknown[0]!r}; choose from "
                         f"{', '.join(SOURCE_SIZES)}")
    results = []
    for size in sizes:
        with tempfile.TemporaryDirectory(prefix="docrte-sources-") as tmp:
            child_json("--write-sources", size, tmp)
            result = {"size": size, "train_mb": (Path(tmp) / "train.json").stat().st_size / 1e6}
            for stage in SOURCE_STAGES:
                result[stage] = child_json("--stage", stage, tmp)
            results.append(result)
    rows = [("train source (MB)", [r["train_mb"] for r in results])]
    rows += [(f"{stage} {label}", [r[stage][key] for r in results]) for stage in SOURCE_STAGES
             for label, key in (("(s)", "s"), ("peak RSS (MB)", "peak_rss_mb"),
                                ("written (MB)", "written_mb"))]
    print(f"{'train documents':<32}" + "".join(f"{r['size']:>10}" for r in results))
    for label, values in rows:
        print(f"{label:<32}" + "".join(f"{v:>10.2f}" for v in values))
    print(f"src/docrte: {src_lines()} lines")
    print(json.dumps({"source_sizes": SOURCE_SIZES, "results": results,
                      "src_lines": src_lines()}))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src" / "docrte").glob("*.py"))


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        logging.getLogger("docrte").setLevel(logging.ERROR)
        with tempfile.TemporaryDirectory(prefix="docrte-scaling-") as tmp:
            print(json.dumps(measure(argv[1], Path(tmp))))
        return
    if argv[:1] == ["--write-sources"]:
        write_sources(argv[1], Path(argv[2]))
        print("{}")
        return
    if argv[:1] == ["--stage"]:
        logging.getLogger("docrte").setLevel(logging.ERROR)
        print(json.dumps(measure_stage(argv[1], Path(argv[2]))))
        return
    if argv[:1] == ["sources"]:
        main_sources(argv[1:] or list(SOURCE_SIZES))
        return
    sizes = argv or list(SIZES)
    unknown = [s for s in sizes if s not in SIZES]
    if unknown:
        raise SystemExit(f"unknown size {unknown[0]!r}; choose from {', '.join(SIZES)}")
    results = [child_json("--child", size) for size in sizes]
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
