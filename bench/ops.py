"""One benchmark operation, run in a fresh child process.

Usage::

    python3 bench/ops.py SPEC.json RESULT.json

SPEC names the operation (``setup``, ``cold``, ``noop``, ``rescore``,
``record`` or ``replay``), the work directory, the workload make-up, the
seed and the final extractor's drop probability.  The operation's wall time
is taken around the runner call only, so interpreter start-up and imports
are not counted.  RESULT receives the time, the process's peak RSS, the
stage outcomes and, when traced, the per-layer totals; the spans themselves
go to the file SPEC names.
"""
from __future__ import annotations

import json
import logging
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the package is run from its source checkout

FINAL_DROP = 0.25  # mock.final_drop_prob of a cold run; a rescore switches
RESCORE_DROP = 0.4  # between the two, and only evaluate reads the setting

# Input make-up per workload.  ``docs`` is documents per unseen relation,
# ``facts`` world facts per relation; train/dev/test give documents per
# catalog relation in the source corpora.  Record and replay run on the first
# seed only, with their own m and docs (``cassette_m``, ``cassette_docs``).
# A round is one cold run-all, ``reruns`` pairs of no-op rerun and rescore on
# it, then ``recordings`` pairs of cassette record and replay.
WORKLOADS = {
    # Many generated documents over a dense world: the per-document scans in
    # simulate and denoise dominate; the chat session recorded is small.
    "cold-run": dict(relations=120, train=2, dev=6, test=6, seeds=3, m=10, docs=25,
                     facts=20, cassette_m=4, cassette_docs=10, reruns=1, recordings=1),
    # Few generated documents but large source corpora, and three reruns per
    # cold run: the time goes to hashing artifacts and to evaluation.
    "resume": dict(relations=120, train=4, dev=10, test=10, seeds=3, m=6, docs=4,
                   facts=6, cassette_m=4, cassette_docs=10, reruns=3, recordings=1),
    # One seed whose whole generate stage is recorded and replayed twice per
    # round: the cassette dominates, the other stages see small inputs.
    "cassette": dict(relations=60, train=1, dev=1, test=1, seeds=1, m=6, docs=12,
                     facts=6, cassette_m=6, cassette_docs=12, reruns=1, recordings=2),
}


def write_inputs(work: Path, makeup: dict, seed: int) -> None:
    """Registry, source corpora and the two configs, all drawn from ``seed``."""
    from docrte.docio import save_docred, write_json_atomic
    from docrte.model import Corpus
    from docrte.simulate import build_world, synthetic_registry, world_documents

    rng = random.Random(f"docrte-bench:{seed}")
    registry = synthetic_registry(makeup["relations"])
    ids = registry.ids()
    inputs = work / "inputs"
    write_json_atomic(inputs / "registry.json", [{"id": r.id, "name": r.name} for r in registry])
    for split_name in ("train", "dev", "test"):
        world_seed = rng.randrange(10**6)
        world = build_world(registry, ids, seed=world_seed, facts_per_relation=3,
                            related_pool=ids, n_related=2)
        corpus = world_documents(world, makeup[split_name], facts_per_doc=3,
                                 seed=world_seed, id_prefix=f"{split_name}-")
        save_docred(Corpus(corpus.documents, "human", registry), inputs / f"{split_name}.json")
    seeds = rng.sample(range(1, 10**4), makeup["seeds"])
    config = {
        "registry": "inputs/registry.json",
        "train_docs": "inputs/train.json",
        "dev_docs": "inputs/dev.json",
        "test_docs": "inputs/test.json",
        "run_dir": "runs/cold",
        "m": makeup["m"],
        "seeds": seeds,
        "docs_per_relation": makeup["docs"],
        "n_related": 2,
        "group_size": 10,
        # Mock chains are CPU-bound: on two threads they contend for the
        # interpreter lock, which made a cold run slower and its time twice
        # as variable as on one.
        "parallelism": 1,
        "mock": {"facts_per_relation": makeup["facts"], "world_seed": rng.randrange(1000),
                 "final_drop_prob": FINAL_DROP},
    }
    write_json_atomic(work / "config.json", config)
    write_json_atomic(work / "config_cassette.json", dict(
        config, seeds=seeds[:1], m=makeup["cassette_m"], docs_per_relation=makeup["cassette_docs"],
        run_dir="cassette_run", cassette_path="cassette.json"))


def make_config(work: Path, name: str, run_dir: str | None = None, **overrides):
    from docrte.config import config_from_dict
    from docrte.docio import load_json

    data = load_json(work / name)
    if run_dir is not None:
        data["run_dir"] = run_dir
    for key, value in overrides.items():
        if isinstance(value, dict):
            data[key] = dict(data.get(key, {}), **value)
        else:
            data[key] = value
    return config_from_dict(data, base_dir=work)


def run_op(spec: dict) -> dict:
    from docrte.backends import CassetteBackend
    from docrte.pipeline import PipelineRunner

    op, work = spec["op"], Path(spec["work"])
    stages, force, factory = None, False, None
    result: dict = {}
    if op == "setup":
        config = None
    elif op in ("cold", "noop", "rescore"):
        config = make_config(work, "config.json", spec["run_dir"],
                         mock={"final_drop_prob": spec["final_drop"]})
    elif op == "record":
        config = make_config(work, "config_cassette.json")
        cassette = Path(config.cassette_path)
        cassette.unlink(missing_ok=True)
        stages, force = ["generate"], True

        def factory(runner, seed, split_spec):
            inner = runner.default_chat_backend(seed, split_spec)
            return CassetteBackend(cassette, mode="record", inner=inner)
    elif op == "replay":
        config = make_config(work, "config_cassette.json", backend="cassette", cassette_mode="replay")
        stages, force = ["generate"], True
    else:
        raise ValueError(f"unknown operation {op!r}")

    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    started = time.perf_counter()
    if op == "setup":
        write_inputs(work, spec["makeup"], spec["seed"])
        outcomes = PipelineRunner(make_config(work, "config_cassette.json")).run(["split", "generate"])
    else:
        outcomes = PipelineRunner(config, chat_backend_factory=factory).run(stages, force=force)
    result["seconds"] = time.perf_counter() - started
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["outcomes"] = [[o.stage, o.status] for o in outcomes]
    if op == "record":
        result["cassette_bytes"] = cassette.stat().st_size
    if tracer is not None:
        result["layers"] = tracing.layer_totals(tracer.spans)
        Path(spec["spans"]).parent.mkdir(parents=True, exist_ok=True)
        Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return result


def main() -> None:
    logging.getLogger("docrte").setLevel(logging.ERROR)
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run_op(spec)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
