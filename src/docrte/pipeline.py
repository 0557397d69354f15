"""Stage orchestration: run directory, manifests, resume, and reporting.

The stages are one table, :data:`STAGES`.  Each stage runs once per seed,
reading files that earlier stages wrote under the run directory, and records
a manifest with content digests of its inputs and outputs.  A stage is
skipped when its manifest says it already ran with byte-identical inputs and
its outputs are still intact, so an interrupted pipeline resumes without
recomputing (and without re-issuing chat requests).  A stage runs only when
every upstream stage is fresh: its manifest says ``ok``, its params and
sources match the config, it recorded as inputs what its own upstream stages
recorded as outputs, and it recorded as outputs what the stage about to run
reads.  Otherwise :class:`MissingStageError` names the stale stage; running
every stage reruns it first.  All artifact writes are atomic (write to a
temp file, then rename), which keeps a crash from leaving a half-written
file that a resume would mistake for a completed one.

Within one :meth:`PipelineRunner.run`, a generated corpus is handed to the
later stages that load it without being read back: ``synthetic_<seed>``
from generate to pseudo-label and denoise, ``denoised_<seed>`` from denoise
to finetune-data-denoised.  A stage takes the object only when the digest of
the bytes written equals the digest it has just checked on disk; otherwise,
and in a stage run on its own, it loads the file.  A corpus is dropped after
its last reader ran and when the run ends.  Split's views and every other
input are always read from disk.  With the mock backend and predictor,
pseudo-label's oracle likewise reuses the truth corpus of the mock world that
generate built for the same seed in the same run; when pseudo-label runs
without generate (alone, after a skipped generate, or behind a custom chat
factory) it rebuilds the world, which is a pure function of the config,
seed and split.

Run directory layout::

    effective_config.json       config used by the last stage that ran
    manifests/<stage>.json      one manifest per stage
    split/spec_<seed>.json      sampled unseen relations
    split/{train,dev,test}_<seed>.json
    generate/synthetic_<seed>.json, generate/records_<seed>.json
                                (records: one text table per file, see load_records)
    finetune/pretrain_<seed>.jsonl, finetune/denoised_<seed>.jsonl
    pseudo/pseudo_<seed>.json
    denoise/{denoised,kg,report}_<seed>.json
    eval/{dev,test}_<seed>.json, eval/predictions_{dev,test}_<seed>.json
    report.json, report.txt     aggregate scores (deterministic content)
"""
from __future__ import annotations

import fcntl
import gc
import logging
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import reduce
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .backends import CassetteBackend, ChatBackend, LiveChatBackend, RateLimiter, ScriptedBackend
from .config import PipelineConfig
from .denoise import denoise
from .docio import (
    ParseError,
    canonical_dumps,
    file_digest,
    load_corpus,
    load_docred,
    load_json,
    load_registry,
    save_corpus,
    sha256_text,
    write_chunks_atomic,
    write_json_atomic,
    write_text_atomic,
)
from .evaluate import (
    EvalResult,
    aggregate_scores,
    evaluate_re,
    evaluate_rte,
    load_predictions,
    save_predictions,
)
from .generate import ChainConfig, generate_corpus, records_chunks
from .model import (
    Corpus,
    EntityKeyError,
    RelationRegistry,
    ValidationError,
    normalize_entity_key,
)
from .prompts import PromptLibrary
from .pseudo import (
    FinetunePolicy,
    HttpPredictor,
    OraclePredictor,
    PredictorBackend,
    ProcessPredictor,
    PseudoLabelSet,
    RelationGroup,
    assemble_finetune_dataset,
    infer_pseudo_labels,
    partition_relations,
    predict_corpus,
    write_finetune_file,
)
from .simulate import chat_script, mock_generation_corpus
from .split import SplitSpec, apply_split, load_split_spec, sample_unseen, save_split_spec

logger = logging.getLogger(__name__)


class StageError(RuntimeError):
    """A stage failed while executing; the manifest records the error."""


class MissingStageError(StageError):
    """A stage was requested before an upstream stage ran, or while one is stale."""


def _stale(stage: str, changed: Sequence[str], consumer: str) -> MissingStageError:
    return MissingStageError(
        f"stale stage: {stage} (changed since it ran: {', '.join(changed)}; "
        f"rerun it before {consumer!r})"
    )


# The fields of the ``mock`` config section that mock_generation_corpus reads.
MOCK_WORLD = ("mock.facts_per_relation", "mock.facts_per_doc", "mock.label_drop_prob",
              "mock.spurious_prob", "mock.world_seed")
# The chat model that answers a live run or records a cassette.
LIVE_MODEL = ("live.base_url", "live.model")


def _registry_source(cfg: PipelineConfig) -> dict[str, Path]:
    return {"config:registry": Path(cfg.registry)}


def _generate_sources(cfg: PipelineConfig) -> dict[str, Path]:
    files = _registry_source(cfg)
    if cfg.templates_dir:
        files.update({f"template:{tpl.name}": tpl
                      for tpl in sorted(Path(cfg.templates_dir).glob("*.txt"))})
    if cfg.backend == "cassette" and cfg.cassette_mode == "replay":
        files["config:cassette_path"] = Path(cfg.cassette_path)
    return files


def _predictions_path(template: str, seed: int) -> Path:
    return Path(str(template).replace("{seed}", str(seed)))


def _evaluate_sources(cfg: PipelineConfig) -> dict[str, Path]:
    files = _registry_source(cfg)
    if cfg.final_predictor == "file":
        for name, template in (("dev", cfg.predictions_dev), ("test", cfg.predictions_test)):
            if template:
                files.update({f"predictions:{name}:{seed}": _predictions_path(template, seed)
                              for seed in cfg.seeds})
    return files


@dataclass(frozen=True)
class Stage:
    """One pipeline stage as data.

    ``reads`` maps each upstream stage (its deps, in the order they are
    checked) to the keys of its outputs read here; ``writes`` maps output
    keys to run-file names with a ``{seed}`` slot.  ``params`` names the
    config values the outputs depend on; ``params_when`` adds more while a
    config field has a given value.  ``sources`` gives the config-named files
    read.  ``loads`` names the read keys that are corpora the runner may hand
    over in memory from an earlier stage of the same run.  The runner calls
    ``_stage_<name>(seed)`` for every seed, then the ``finish`` method, if
    any, with every seed's result.
    """

    name: str
    reads: Mapping[str, tuple[str, ...]]
    writes: Mapping[str, str]
    params: tuple[str, ...] = ()
    params_when: Mapping[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    sources: Callable[[PipelineConfig], dict[str, Path]] = _registry_source
    loads: tuple[str, ...] = ()
    finish: str | None = None
    finish_writes: tuple[str, ...] = ()

    def param_values(self, cfg: PipelineConfig) -> dict[str, Any]:
        names = list(self.params)
        for (switch, value), extra in self.params_when.items():
            if getattr(cfg, switch) == value:
                names.extend(extra)
        return {name: reduce(getattr, name.split("."), cfg) for name in names}

    @property
    def deps(self) -> tuple[str, ...]:
        return tuple(self.reads)

    def inputs(self, seed: int) -> dict[str, str]:
        """Run files read for one seed, by output key."""
        return {key: STAGES[dep].writes[key].format(seed=seed)
                for dep, keys in self.reads.items() for key in keys}

    def outputs(self, seed: int) -> dict[str, str]:
        """Run files written for one seed, by output key."""
        return {key: name.format(seed=seed) for key, name in self.writes.items()}

    def upstream_files(self, seeds: Sequence[int]) -> dict[str, str]:
        """Every run file read for ``seeds``, mapped to the stage that wrote it."""
        return {STAGES[dep].writes[key].format(seed=seed): dep
                for dep, keys in self.reads.items() for key in keys for seed in seeds}


STAGES: dict[str, Stage] = {stage.name: stage for stage in (
    Stage("split", reads={},
          writes={key: f"split/{key}_{{seed}}.json" for key in ("spec", "train", "dev", "test")},
          params=("m", "mixed_policy"),
          sources=lambda cfg: {f"config:{name}": Path(getattr(cfg, name))
                               for name in ("registry", "train_docs", "dev_docs", "test_docs")}),
    Stage("generate", reads={"split": ("spec",)},
          writes={"synthetic": "generate/synthetic_{seed}.json",
                  "records": "generate/records_{seed}.json"},
          params=tuple(f.name for f in fields(ChainConfig)) + ("backend",),
          params_when={("backend", "mock"): MOCK_WORLD, ("backend", "live"): LIVE_MODEL,
                       ("backend", "cassette"): LIVE_MODEL},
          sources=_generate_sources),
    Stage("finetune-data", reads={"split": ("spec", "train")},
          writes={"samples": "finetune/pretrain_{seed}.jsonl"},
          params=("group_size", "keep_empty_prob", "instruction")),
    Stage("pseudo-label", reads={"generate": ("synthetic",), "split": ("spec",)},
          writes={"pseudo": "pseudo/pseudo_{seed}.json"},
          params=("predictor", "instruction"), loads=("synthetic",),
          params_when={("predictor", "mock"): MOCK_WORLD + (
                           "mock.pseudo_drop_prob", "docs_per_relation", "n_related"),
                       ("predictor", "process"): ("predictor_argv",),
                       ("predictor", "http"): ("predictor_url",)}),
    Stage("denoise",
          reads={"generate": ("synthetic",), "pseudo-label": ("pseudo",), "split": ("spec",)},
          writes={key: f"denoise/{key}_{{seed}}.json" for key in ("denoised", "kg", "report")},
          loads=("synthetic",)),
    Stage("finetune-data-denoised", reads={"denoise": ("denoised",), "split": ("spec",)},
          writes={"samples": "finetune/denoised_{seed}.jsonl"},
          params=("keep_empty_prob", "instruction"), loads=("denoised",)),
    # m and mixed_policy are echoed in the report
    Stage("evaluate", reads={"split": ("spec", "dev", "test"), "denoise": ("denoised",)},
          writes={"scores_dev": "eval/dev_{seed}.json",
                  "scores_test": "eval/test_{seed}.json",
                  "predictions_dev": "eval/predictions_dev_{seed}.json",
                  "predictions_test": "eval/predictions_test_{seed}.json"},
          params=("final_predictor", "strict_seen", "instruction", "m", "mixed_policy"),
          params_when={("final_predictor", "mock"): ("mock.final_drop_prob",),
                       ("final_predictor", "process"): ("final_predictor_argv",),
                       ("final_predictor", "http"): ("final_predictor_url",),
                       ("final_predictor", "file"): ("predictions_dev", "predictions_test")},
          sources=_evaluate_sources,
          finish="_write_report", finish_writes=("report.json", "report.txt")),
)}

STAGE_ORDER = tuple(STAGES)

# The gen-0 collection threshold while a stage body runs.  A stage allocates
# hundreds of thousands of container objects that live until it ends: at the
# default threshold (700), one cold run of the bench `cold-run` workload made
# about 900 collections that freed about 1,100 objects in all.  At this value
# it makes three.
STAGE_GC_GEN0 = 100_000


class _Held(NamedTuple):
    """A corpus written in the current run, kept for a later stage of it."""

    digest: str  # of the bytes written
    corpus: Corpus
    last_reader: str  # the stage after which it is dropped


@dataclass
class StageManifest:
    stage: str
    status: str  # "ok" | "failed"
    inputs: dict[str, str]
    outputs: dict[str, str]
    started_at: str
    finished_at: str
    error: str | None = None


@dataclass
class StageOutcome:
    stage: str
    status: str  # "ran" | "skipped"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@contextmanager
def run_lock(run_dir: Path) -> Iterator[None]:
    """Exclusive lock on a run directory: ``fcntl.flock`` on its ``.lock`` file.

    The OS drops the lock when its holder exits, however it exits, so the
    empty lock file that a killed run left behind does not refuse the next
    run.  A lock file that is not empty holds the process id written by a
    docrte that locked by creating the file exclusively; nothing can tell
    whether that process is gone, so it refuses the run as it did then.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    lock = run_dir / ".lock"
    while True:
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise StageError(f"run directory is locked by another process: {lock}") from None
        held = os.fstat(fd)
        # a holder that was releasing may have unlinked the file just opened
        try:
            if os.path.samestat(held, os.stat(lock)):
                break
        except FileNotFoundError:
            pass
        os.close(fd)
    if held.st_size:
        os.close(fd)
        raise StageError(f"run directory is locked by another process: {lock} "
                         "(delete the lock file if that process is gone)")
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


# Factories let tests substitute counting/failing doubles for the real
# transports without monkeypatching stage internals.
ChatBackendFactory = Callable[["PipelineRunner", int, SplitSpec], ChatBackend]
PredictorFactory = Callable[["PipelineRunner", int, SplitSpec], PredictorBackend]
FinalPredictorFactory = Callable[["PipelineRunner", int, SplitSpec, Corpus, str], PredictorBackend]


class PipelineRunner:
    def __init__(
        self,
        config: PipelineConfig,
        chat_backend_factory: ChatBackendFactory | None = None,
        predictor_factory: PredictorFactory | None = None,
        final_predictor_factory: FinalPredictorFactory | None = None,
    ):
        self.config = config
        self.run_dir = Path(config.run_dir)
        cls = type(self)
        self.chat_backend_factory = chat_backend_factory or cls.default_chat_backend
        self.predictor_factory = predictor_factory or cls.default_pseudo_predictor
        self.final_predictor_factory = final_predictor_factory or cls.default_final_predictor
        self._registry: RelationRegistry | None = None
        # train/dev/test source corpora, held only while split runs its seeds
        self._sources: tuple[Corpus, Corpus, Corpus] | None = None
        # manifests of the stages known to be fresh in the current run()
        self._fresh: dict[str, StageManifest] = {}
        # whether effective_config.json echoes this config yet
        self._config_written = False
        # pseudo-label's oracles over the truth corpora of the mock worlds
        # generate built in the current run(), by (seed, spec), so a run builds
        # each world once; an oracle holds far less memory than its corpus
        self._oracles: dict[tuple[int, SplitSpec], OraclePredictor] = {}
        # the stages the current run() has still to run after the one running
        # now; empty outside run(), so a bare run_stage hands nothing over
        self._later: tuple[str, ...] = ()
        # corpora written in the current run() for later stages of it, by run file
        self._held: dict[str, _Held] = {}
        # the input digests recorded by the stage running now
        self._inputs: dict[str, str] = {}

    # -- small helpers ------------------------------------------------------

    @property
    def registry(self) -> RelationRegistry:
        if self._registry is None:
            self._registry = load_registry(self.config.registry)
        return self._registry

    def path(self, rel: str) -> Path:
        return self.run_dir / rel

    def manifest_path(self, stage: str) -> Path:
        return self.run_dir / "manifests" / f"{stage}.json"

    def read_manifest(self, stage: str) -> StageManifest | None:
        path = self.manifest_path(stage)
        if not path.exists():
            return None
        return StageManifest(**load_json(path))

    def _write_manifest(self, manifest: StageManifest) -> None:
        write_json_atomic(self.manifest_path(manifest.stage), asdict(manifest))

    def _files(self, stage: str, seed: int) -> dict[str, Path]:
        """What ``stage`` reads and writes for one seed, by key."""
        entry = STAGES[stage]
        return {key: self.path(rel)
                for key, rel in {**entry.inputs(seed), **entry.outputs(seed)}.items()}

    def _digest(self, rel: str) -> str | None:
        path = self.path(rel)
        return file_digest(path) if path.exists() else None

    # -- freshness ------------------------------------------------------------

    def _config_inputs(self, stage: str) -> dict[str, str]:
        """Digests of the params and the source files a stage depends on."""
        entry = STAGES[stage]
        params = {"seeds": list(self.config.seeds), **entry.param_values(self.config)}
        digests = {"params": sha256_text(canonical_dumps(params))}
        for key, path in entry.sources(self.config).items():
            if not path.exists():
                raise StageError(f"{key} points to a missing file: {path}")
            digests[key] = file_digest(path)
        return digests

    def _fresh_manifest(self, stage: str, consumer: str) -> StageManifest:
        """The manifest of ``stage`` if it is fresh, judged once per run: it
        says ``ok``, its params and sources match the config, and its recorded
        run-file inputs are what its fresh upstream stages recorded as outputs.
        """
        if stage in self._fresh:
            return self._fresh[stage]
        manifest = self.read_manifest(stage)
        if manifest is None or manifest.status != "ok":
            raise MissingStageError(f"missing stage: {stage} (run it before {consumer!r})")
        expected: dict[str, str | None] = {**self._config_inputs(stage)}
        for rel, dep in STAGES[stage].upstream_files(self.config.seeds).items():
            expected[rel] = self._fresh_manifest(dep, consumer).outputs.get(rel)
        changed = [key for key in sorted(expected.keys() | manifest.inputs.keys())
                   if expected.get(key) != manifest.inputs.get(key)]
        if changed:
            raise _stale(stage, changed, consumer)
        self._fresh[stage] = manifest
        return manifest

    def _check_deps(self, stage: str) -> None:
        for dep in STAGES[stage].deps:
            self._fresh_manifest(dep, stage)

    def _compute_inputs(self, stage: str) -> dict[str, str]:
        """The input digests ``stage`` is about to record; each run file must
        hold what the upstream stage that wrote it recorded as an output."""
        inputs = self._config_inputs(stage)
        for rel, dep in STAGES[stage].upstream_files(self.config.seeds).items():
            digest = self._digest(rel)
            if digest is None or digest != self._fresh[dep].outputs.get(rel):
                raise _stale(dep, [rel], stage)
            inputs[rel] = digest
        return inputs

    def _outputs_intact(self, manifest: StageManifest) -> bool:
        return all(self._digest(rel) == digest for rel, digest in manifest.outputs.items())

    def _digest_written(self, stage: str, rel_paths: Iterable[str]) -> dict[str, str]:
        digests = {}
        for rel in rel_paths:
            digest = self._digest(rel)
            if digest is None:
                raise StageError(f"stage {stage} finished without writing {self.path(rel)}")
            digests[rel] = digest
        return digests

    # -- skip / run machinery -------------------------------------------------

    def run_stage(self, stage: str, force: bool = False) -> StageOutcome:
        """Run one stage for every seed, or skip it when it is still fresh."""
        if stage not in STAGES:
            raise StageError(f"unknown stage: {stage!r}")
        entry = STAGES[stage]
        self._check_deps(stage)
        inputs = self._inputs = self._compute_inputs(stage)
        manifest = self.read_manifest(stage)
        if (
            not force
            and manifest is not None
            and manifest.status == "ok"
            and manifest.inputs == inputs
            and self._outputs_intact(manifest)
        ):
            logger.info("stage %s: up to date, skipping", stage)
            self._fresh[stage] = manifest
            return StageOutcome(stage=stage, status="skipped")

        # this stage's outputs, and so every later stage's verdict, may change
        for name in STAGE_ORDER[STAGE_ORDER.index(stage):]:
            self._fresh.pop(name, None)
        if not self._config_written:
            write_json_atomic(self.path("effective_config.json"), self.config.to_json())
            self._config_written = True
        started = _now()
        run_seed = getattr(self, "_stage_" + stage.replace("-", "_"))
        outputs: dict[str, str] = {}
        thresholds = gc.get_threshold()
        gc.set_threshold(max(STAGE_GC_GEN0, thresholds[0]), *thresholds[1:])
        try:
            results: dict[int, Any] = {}
            for seed in self.config.seeds:
                results[seed] = run_seed(seed)
                outputs.update(self._digest_written(stage, entry.outputs(seed).values()))
            if entry.finish:
                getattr(self, entry.finish)(results)
                outputs.update(self._digest_written(stage, entry.finish_writes))
        except Exception as exc:
            self._write_manifest(StageManifest(
                stage=stage, status="failed", inputs=inputs, outputs={},
                started_at=started, finished_at=_now(), error=str(exc),
            ))
            # Input-format and validation problems keep their type so the CLI
            # can report them as bad input rather than a pipeline fault.
            if isinstance(exc, (StageError, ParseError, ValidationError)):
                raise
            raise StageError(f"stage {stage} failed: {exc}") from exc
        finally:
            gc.set_threshold(*thresholds)
            self._sources = None

        manifest = StageManifest(
            stage=stage, status="ok", inputs=inputs, outputs=outputs,
            started_at=started, finished_at=_now(),
        )
        self._write_manifest(manifest)
        self._fresh[stage] = manifest
        logger.info("stage %s: done (%d output files)", stage, len(outputs))
        return StageOutcome(stage=stage, status="ran")

    def run(self, stages: Sequence[str] | None = None, force: bool = False) -> list[StageOutcome]:
        """Run the given stages (default: all) under the run-directory lock."""
        wanted = list(stages) if stages is not None else list(STAGE_ORDER)
        for stage in wanted:
            if stage not in STAGES:
                raise StageError(f"unknown stage: {stage!r}")
        ordered = tuple(s for s in STAGE_ORDER if s in wanted)
        with run_lock(self.run_dir):
            self._fresh = {}
            self._config_written = False
            outcomes = []
            try:
                for i, stage in enumerate(ordered):
                    self._later = ordered[i + 1:]
                    outcomes.append(self.run_stage(stage, force=force))
                    self._held = {rel: held for rel, held in self._held.items()
                                  if held.last_reader != stage}
                return outcomes
            finally:
                self._oracles.clear()
                self._held.clear()
                self._later = ()

    # -- corpora handed over within a run -----------------------------------

    def _save_corpus(self, stage: str, seed: int, key: str, corpus: Corpus) -> None:
        """Write output ``key`` of ``stage``; keep it for the later stages of
        this run that load it."""
        rel = STAGES[stage].outputs(seed)[key]
        digest = save_corpus(corpus, self.path(rel))
        readers = [s for s in self._later if stage in STAGES[s].reads and key in STAGES[s].loads]
        if readers:
            self._held[rel] = _Held(digest, corpus, readers[-1])

    def _load_corpus(self, stage: str, seed: int, key: str) -> Corpus:
        """Input ``key`` of ``stage``: the corpus written earlier in this run
        if the file holds what was written, else the file loaded."""
        rel = STAGES[stage].inputs(seed)[key]
        held = self._held.get(rel)
        if held is not None and held.digest == self._inputs.get(rel):
            return held.corpus
        return load_corpus(self.path(rel), self.registry)

    # -- transports -----------------------------------------------------------

    def _mock_world(self, seed: int, spec: SplitSpec):
        return mock_generation_corpus(
            self.registry,
            sorted(spec.unseen),
            sorted(spec.seen),
            seed,
            self.config.docs_per_relation,
            self.config.n_related,
            self.config.mock,
        )

    def default_chat_backend(self, seed: int, spec: SplitSpec) -> ChatBackend:
        cfg = self.config
        if cfg.backend == "mock":
            world, truth, corrupted = self._mock_world(seed, spec)
            if cfg.predictor == "mock":
                self._oracles[seed, spec] = self._pseudo_oracle(seed, spec, truth)
            return ScriptedBackend(chat_script(world, corrupted), record_calls=False)
        if cfg.backend == "cassette":
            if cfg.cassette_mode == "record":
                return CassetteBackend(cfg.cassette_path, mode="record",
                                       inner=self._live_backend())
            return CassetteBackend(cfg.cassette_path, mode="replay")
        return self._live_backend()

    def _live_backend(self) -> LiveChatBackend:
        live = self.config.live
        limiter = RateLimiter(live.rate_per_sec, live.burst) if live.rate_per_sec > 0 else None
        return LiveChatBackend(
            base_url=live.base_url,
            model=live.model,
            api_key_env=live.api_key_env,
            timeout=live.timeout,
            max_attempts=live.max_attempts,
            rate_limiter=limiter,
        )

    def _predictor(self, role: str, oracle: Callable[[], PredictorBackend]) -> PredictorBackend:
        """The extractor that config field ``role`` (``predictor`` or
        ``final_predictor``) selects; ``oracle`` builds the mock one."""
        kind = getattr(self.config, role)
        if kind == "mock":
            return oracle()
        if kind == "process":
            return ProcessPredictor(list(getattr(self.config, f"{role}_argv")))
        if kind == "http":
            return HttpPredictor(getattr(self.config, f"{role}_url"))
        raise StageError(f"{role} is {kind!r}; configure another {role} to run this stage")

    def _pseudo_oracle(self, seed: int, spec: SplitSpec, truth: Corpus) -> OraclePredictor:
        return OraclePredictor(truth, self.registry, drop_prob=self.config.mock.pseudo_drop_prob,
                               seed=seed, restrict_to=sorted(spec.unseen))

    def default_pseudo_predictor(self, seed: int, spec: SplitSpec) -> PredictorBackend:
        def oracle() -> PredictorBackend:
            if (seed, spec) in self._oracles:
                return self._oracles.pop((seed, spec))
            return self._pseudo_oracle(seed, spec, self._mock_world(seed, spec)[1])

        return self._predictor("predictor", oracle)

    def default_final_predictor(self, seed: int, spec: SplitSpec, gold: Corpus,
                                split_name: str) -> PredictorBackend:
        return self._predictor("final_predictor", lambda: OraclePredictor(
            gold, self.registry, drop_prob=self.config.mock.final_drop_prob,
            seed=seed * 2 + (0 if split_name == "dev" else 1)))

    # -- stages ---------------------------------------------------------------

    def _stage_split(self, seed: int) -> None:
        cfg = self.config
        if self._sources is None:
            self._sources = (load_docred(cfg.train_docs, self.registry),
                             load_docred(cfg.dev_docs, self.registry),
                             load_docred(cfg.test_docs, self.registry))
        spec = sample_unseen(self.registry, cfg.m, seed)
        bundle = apply_split(*self._sources, spec, cfg.mixed_policy)
        files = self._files("split", seed)
        save_split_spec(spec, files["spec"])
        save_corpus(bundle.train, files["train"])
        save_corpus(bundle.eval_dev, files["dev"])
        save_corpus(bundle.eval_test, files["test"])

    def _stage_generate(self, seed: int) -> None:
        cfg = self.config
        files = self._files("generate", seed)
        spec = load_split_spec(files["spec"])
        backend = self.chat_backend_factory(self, seed, spec)
        corpus, records = generate_corpus(
            backend, sorted(spec.unseen), self.registry, cfg.chain(),
            prompts=PromptLibrary(cfg.templates_dir), parallelism=cfg.parallelism,
        )
        self._save_corpus("generate", seed, "synthetic", corpus)
        write_chunks_atomic(files["records"], records_chunks(records))

    def _stage_finetune_data(self, seed: int) -> None:
        cfg = self.config
        files = self._files("finetune-data", seed)
        spec = load_split_spec(files["spec"])
        train = load_corpus(files["train"], self.registry)
        groups = partition_relations(sorted(spec.seen), cfg.group_size, seed=seed)
        policy = FinetunePolicy(instruction=cfg.instruction,
                                keep_empty_prob=cfg.keep_empty_prob, seed=seed)
        samples = assemble_finetune_dataset(train, groups, policy, self.registry)
        write_finetune_file(samples, files["samples"])

    def _stage_pseudo_label(self, seed: int) -> None:
        cfg = self.config
        files = self._files("pseudo-label", seed)
        spec = load_split_spec(files["spec"])
        synthetic = self._load_corpus("pseudo-label", seed, "synthetic")
        predictor = self.predictor_factory(self, seed, spec)
        labels = infer_pseudo_labels(
            predictor, synthetic, sorted(spec.unseen), cfg.instruction, self.registry,
        )
        write_json_atomic(files["pseudo"], labels.to_json(), compact=True)

    def _stage_denoise(self, seed: int) -> None:
        files = self._files("denoise", seed)
        spec = load_split_spec(files["spec"])
        synthetic = self._load_corpus("denoise", seed, "synthetic")
        pseudo = PseudoLabelSet.from_json(load_json(files["pseudo"]))
        denoised, report, rows = denoise(synthetic, pseudo.fact_sets(), sorted(spec.unseen))
        self._save_corpus("denoise", seed, "denoised", denoised)
        write_json_atomic(files["kg"], rows, compact=True)
        write_json_atomic(files["report"], report.to_json())

    def _stage_finetune_data_denoised(self, seed: int) -> None:
        cfg = self.config
        files = self._files("finetune-data-denoised", seed)
        spec = load_split_spec(files["spec"])
        denoised = self._load_corpus("finetune-data-denoised", seed, "denoised")
        groups = [RelationGroup(index=0, relations=tuple(sorted(spec.unseen)))]
        policy = FinetunePolicy(instruction=cfg.instruction,
                                keep_empty_prob=cfg.keep_empty_prob, seed=seed)
        samples = assemble_finetune_dataset(denoised, groups, policy, self.registry)
        write_finetune_file(samples, files["samples"])

    def _final_predictions(self, seed: int, spec: SplitSpec, gold: Corpus,
                           split_name: str) -> dict[str, list[tuple[str, str, str]]]:
        cfg = self.config
        if cfg.final_predictor == "file":
            template = cfg.predictions_dev if split_name == "dev" else cfg.predictions_test
            if not template:
                raise StageError(f"no predictions file configured for the {split_name} split")
            path = _predictions_path(template, seed)
            raw = load_predictions(path)
            resolved: dict[str, list[tuple[str, str, str]]] = {}
            for doc_id, triples in raw.items():
                rows = []
                for head, tail, token in triples:
                    rel = self.registry.resolve(token)
                    if rel is None:
                        raise StageError(
                            f"{path}: unknown relation {token!r} in predictions "
                            f"for document {doc_id}"
                        )
                    rows.append((head, tail, rel.id))
                resolved[doc_id] = rows
            return resolved
        predictor = self.final_predictor_factory(self, seed, spec, gold, split_name)
        predictions = predict_corpus(predictor, gold, sorted(spec.unseen),
                                     cfg.instruction, self.registry)
        return {doc_id: triplets or [] for doc_id, triplets in predictions.items()}

    def _stage_evaluate(self, seed: int) -> dict[str, dict[str, EvalResult]]:
        cfg = self.config
        files = self._files("evaluate", seed)
        spec = load_split_spec(files["spec"])
        results: dict[str, dict[str, EvalResult]] = {}
        for split_name in ("dev", "test"):
            gold = load_corpus(files[split_name], self.registry)
            preds = self._final_predictions(seed, spec, gold, split_name)
            save_predictions(preds, files[f"predictions_{split_name}"])
            rte = evaluate_rte(preds, gold, spec.unseen, cfg.strict_seen)
            re_preds = _index_predictions(preds, gold)
            re = evaluate_re(re_preds, gold, spec.unseen, cfg.strict_seen)
            results[split_name] = {"rte": rte, "re": re}
            write_json_atomic(
                files[f"scores_{split_name}"],
                {"seed": seed, "split": split_name,
                 "rte": asdict(rte), "re": asdict(re)},
            )
        return results

    def _write_report(self, per_seed: Mapping[int, Mapping[str, Mapping[str, EvalResult]]]) -> None:
        report = build_report(self.config, per_seed)
        write_json_atomic(self.path("report.json"), report)
        write_text_atomic(self.path("report.txt"), render_report_text(report))

    # convenience used by the CLI after run-all
    def report_text(self) -> str:
        path = self.path("report.txt")
        return path.read_text(encoding="utf-8") if path.exists() else ""


def _index_predictions(
    name_preds: Mapping[str, Sequence[tuple[str, str, str]]],
    corpus: Corpus,
) -> dict[str, list[tuple[int, int, str]]]:
    """Project name-based predictions into each document's entity index space.

    A prediction whose head or tail does not name a listed entity (after
    normalization) cannot be expressed as an index pair and is omitted from
    the index-based view; the name-based scoring still sees it.
    """
    out: dict[str, list[tuple[int, int, str]]] = {}
    for doc in corpus.documents:
        key_to_index = doc.key_to_index()
        rows: list[tuple[int, int, str]] = []
        for head, tail, relation in name_preds.get(doc.doc_id, []):
            try:
                hi = key_to_index.get(normalize_entity_key(head))
                ti = key_to_index.get(normalize_entity_key(tail))
            except EntityKeyError:
                continue
            if hi is None or ti is None or hi == ti:
                continue
            rows.append((hi, ti, relation))
        out[doc.doc_id] = rows
    return out


def build_report(
    config: PipelineConfig,
    per_seed: Mapping[int, Mapping[str, Mapping[str, EvalResult]]],
) -> dict[str, Any]:
    """Assemble the run-level report: per-seed scores plus mean ± std."""
    seeds = sorted(per_seed)
    report: dict[str, Any] = {
        "m": config.m,
        "seeds": seeds,
        "mixed_policy": config.mixed_policy,
        "strict_seen": config.strict_seen,
        "per_seed": {},
        "aggregate": {},
    }
    for seed in seeds:
        report["per_seed"][str(seed)] = {
            split_name: {kind: asdict(result) for kind, result in kinds.items()}
            for split_name, kinds in sorted(per_seed[seed].items())
        }
    for split_name in ("dev", "test"):
        report["aggregate"][split_name] = {}
        for kind in ("rte", "re"):
            scores = [per_seed[s][split_name][kind].f1 * 100.0 for s in seeds]
            agg = aggregate_scores(scores)
            report["aggregate"][split_name][kind] = {
                "mean": agg.mean, "std": agg.std, "n": agg.n, "text": agg.render(),
            }
    return report


def render_report_text(report: Mapping[str, Any]) -> str:
    """Human-readable summary; content is a pure function of the report."""
    seeds = ",".join(str(s) for s in report["seeds"])
    lines = [
        "zero-shot document-level relation extraction",
        f"unseen relations per split: m={report['m']}   "
        f"seeds: {seeds}   mixed policy: {report['mixed_policy']}",
        "",
        "aggregate micro-F1 (mean ± sample std over seeds, x100):",
    ]
    for split_name in ("dev", "test"):
        agg = report["aggregate"][split_name]
        lines.append(
            f"  {split_name:<4}  triplets (names): {agg['rte']['text']:<14} "
            f"relations (indices): {agg['re']['text']}"
        )
    lines.append("")
    lines.append("per seed:")
    for seed in report["seeds"]:
        row = report["per_seed"][str(seed)]
        cells = []
        for split_name in ("dev", "test"):
            rte = row[split_name]["rte"]
            re_ = row[split_name]["re"]
            cells.append(
                f"{split_name} rte={100 * rte['f1']:.1f} re={100 * re_['f1']:.1f}"
            )
        lines.append(f"  seed {seed}: " + "  |  ".join(cells))
    return "\n".join(lines) + "\n"
