"""Spans around the calls into each docrte module, installed from outside.

Nothing under ``src/`` is edited: :func:`install` replaces module attributes
and class methods with wrappers that record one span per call (name, start,
end, parent span, attributes).  Spans stay in memory; the operation runner
writes them out when it ends, and :func:`layer_totals` turns one operation's
spans into the per-layer metrics, self times included.

Parents are tracked per thread, so a chain that runs on a generation worker
thread is a root span of that thread; every metric below only relates spans
of one thread to each other.
"""
from __future__ import annotations

import importlib
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

STAGES = ("split", "generate", "finetune_data", "pseudo_label", "denoise",
          "finetune_data_denoised", "evaluate")

COUNTS = ("facts_kept", "facts_pruned", "labels_added", "labels_removed", "docs_dropped")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, attrs]
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             attrs: Callable[[tuple, dict, Any], dict] | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_name = name(*args, **kwargs) if callable(name) else name
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([span_name, 0.0, 0.0, stack[-1] if stack else None, None])
            stack.append(index)
            span = tracer.spans[index]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _file_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _text_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": len(args[1].encode("utf-8"))}


def _cassette_mode(args: tuple, kwargs: dict) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "replay")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every docrte module."""
    # importlib, because the package re-exports functions named like its
    # modules: the attribute docrte.denoise is the function, not the module
    names = ("backends", "denoise", "docio", "evaluate", "generate", "pipeline", "pseudo",
             "simulate", "split")
    modules = [importlib.import_module("docrte")] + [
        importlib.import_module("docrte." + name) for name in names]
    backends, denoise, docio, evaluate, generate, pipeline, pseudo, simulate, split = modules[1:]

    def everywhere(owner, attr: str, name, attrs=None, scope: Iterable = ()) -> None:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name, attrs)
        for module in (scope or modules):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def method(cls, attr: str, name, attrs=None) -> None:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, attrs))

    runner = pipeline.PipelineRunner
    for stage in STAGES:
        method(runner, "_stage_" + stage, "pipeline.stage." + stage)
    method(runner, "run_stage", "pipeline.run_stage",
           lambda a, k, r: {"status": r.status})
    for attr in ("_check_deps", "_compute_inputs", "_outputs_intact"):
        method(runner, attr, "pipeline.freshness")

    everywhere(docio, "canonical_dumps", "docio.dumps")
    everywhere(docio, "write_text_atomic", "docio.write", _text_bytes)
    everywhere(docio, "load_json", "docio.load", _file_bytes)
    for attr in ("load_corpus", "load_docred", "load_registry"):
        everywhere(docio, attr, "docio.load")
    everywhere(docio, "file_digest", "docio.digest", _file_bytes)

    everywhere(simulate, "mock_generation_corpus", "simulate.world")
    everywhere(simulate, "chat_script", "simulate.chat_script")

    method(backends.ScriptedBackend, "send", "backends.send.scripted")
    method(backends.CassetteBackend, "send",
           lambda self, *a, **k: "backends.send.cassette_" + self.mode)
    method(backends.CassetteBackend, "__init__",
           lambda self, *a, **k: "backends.cassette_open." + _cassette_mode((self,) + a, k))

    everywhere(generate, "run_chain", "generate.chain",
               lambda a, k, r: {"failed": 0 if r.ok else 1}, scope=[generate])
    for attr in ("ground_entity_mentions", "ground_support"):
        everywhere(generate, attr, "generate.grounding", scope=[generate])

    method(pseudo.OraclePredictor, "predict", "pseudo.predict")
    everywhere(pseudo, "infer_pseudo_labels", "pseudo.infer")
    everywhere(pseudo, "assemble_finetune_dataset", "pseudo.finetune",
               lambda a, k, r: {"samples": len(r)})
    everywhere(pseudo, "write_finetune_file", "pseudo.finetune")

    for attr in ("build_graph", "fuse", "compute_thresholds", "prune"):
        everywhere(denoise, attr, "denoise.graph", scope=[denoise])
    everywhere(denoise, "relabel_corpus", "denoise.relabel",
               lambda a, k, r: dict(r[1].counts), scope=[denoise])

    everywhere(evaluate, "evaluate_rte", "evaluate.rte",
               lambda a, k, r: {"predictions": sum(len(v) for v in a[0].values())})
    everywhere(evaluate, "evaluate_re", "evaluate.re")

    everywhere(split, "apply_split", "split.apply")


def layer_totals(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer sums for one operation, computed from its spans alone."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def group(i: int) -> str:
        name = spans[i][0]
        return "backends.send" if name.startswith("backends.send.") else name

    def outermost(name: str) -> list[int]:
        """Spans of a group that no span of the same group encloses."""
        found = []
        for i in range(len(spans)):
            if group(i) != name:
                continue
            parent = spans[i][3]
            while parent is not None and group(parent) != name:
                parent = spans[parent][3]
            if parent is None:
                found.append(i)
        return found

    def nearest(i: int, name: str) -> list[int]:
        """Descendants of span i in group ``name``, not looking inside them."""
        out, todo = [], list(children.get(i, ()))
        while todo:
            j = todo.pop()
            if group(j) == name:
                out.append(j)
            else:
                todo.extend(children.get(j, ()))
        return out

    def self_time(names: Iterable[str], excluding: str) -> float:
        return sum(dur(i) - sum(dur(j) for j in nearest(i, excluding))
                   for i in range(len(spans)) if spans[i][0] in names)

    def seconds(name: str) -> float:
        return sum(dur(i) for i in outermost(name))

    def exact(name: str) -> float:
        return sum(dur(i) for i in range(len(spans)) if spans[i][0] == name)

    def attr_sum(name: str, key: str, among: Iterable[int] | None = None) -> float:
        indices = range(len(spans)) if among is None else among
        return sum((spans[i][4] or {}).get(key, 0) for i in indices if spans[i][0] == name)

    def count(name: str) -> int:
        return sum(1 for span in spans if span[0] == name)

    statuses = [(s[4] or {}).get("status") for s in spans if s[0] == "pipeline.run_stage"]
    record = [i for i in range(len(spans)) if spans[i][0] == "backends.send.cassette_record"]
    under_record = [j for i in record for j in nearest(i, "docio.write")]
    sends = outermost("backends.send")

    totals: dict[str, float] = {f"pipeline.stage.{s}_s": seconds(f"pipeline.stage.{s}")
                                for s in STAGES}
    totals.update({
        "pipeline.stages_ran": statuses.count("ran"),
        "pipeline.stages_skipped": statuses.count("skipped"),
        "pipeline.freshness_s": seconds("pipeline.freshness"),
        "docio.dumps_s": seconds("docio.dumps"),
        "docio.bytes_written": attr_sum("docio.write", "bytes"),
        "docio.writes": count("docio.write"),
        "docio.load_s": seconds("docio.load"),
        "docio.bytes_read": attr_sum("docio.load", "bytes"),
        "docio.digest_s": seconds("docio.digest"),
        "docio.bytes_hashed": attr_sum("docio.digest", "bytes"),
        "simulate.world_builds": count("simulate.world"),
        "simulate.world_s": seconds("simulate.world"),
        "simulate.chat_script_s": seconds("simulate.chat_script"),
        "backends.chat_calls": len(sends),
        "backends.chat_send_s": sum(dur(i) for i in sends),
        "backends.cassette_record_s": (
            self_time(["backends.send.cassette_record"], excluding="backends.send")
            + seconds("backends.cassette_open.record")),
        "backends.cassette_bytes_written": attr_sum("docio.write", "bytes", under_record),
        "backends.cassette_replay_s": (exact("backends.send.cassette_replay")
                                       + seconds("backends.cassette_open.replay")),
        "generate.chains": count("generate.chain"),
        "generate.chains_failed": attr_sum("generate.chain", "failed"),
        "generate.chain_self_s": self_time(["generate.chain"], excluding="backends.send"),
        "generate.grounding_s": seconds("generate.grounding"),
        "pseudo.predict_calls": count("pseudo.predict"),
        "pseudo.predict_s": seconds("pseudo.predict"),
        "pseudo.infer_self_s": self_time(["pseudo.infer"], excluding="pseudo.predict"),
        "pseudo.finetune_samples": attr_sum("pseudo.finetune", "samples"),
        "pseudo.finetune_s": seconds("pseudo.finetune"),
        "denoise.graph_s": seconds("denoise.graph"),
        "denoise.relabel_s": seconds("denoise.relabel"),
        "evaluate.rte_s": seconds("evaluate.rte"),
        "evaluate.re_s": seconds("evaluate.re"),
        "evaluate.predictions": attr_sum("evaluate.rte", "predictions"),
        "split.apply_s": seconds("split.apply"),
    })
    for key in COUNTS:
        totals["denoise." + key] = attr_sum("denoise.relabel", key)
    return totals
