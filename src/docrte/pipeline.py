"""Stage orchestration: run directory, manifests, resume, and reporting.

The stages are one table, :data:`STAGES`.  A stage body runs once, over its
seeds, reading files that earlier stages wrote under the run directory, and
the stage records a manifest with content digests of its inputs and outputs.
One rule judges every stage, the one about to run and each one upstream of it:
a stage is fresh when its manifest says ``ok``, the inputs it recorded
(params, sources, run files read) equal what it would record now, it records
every output it declares with the digest the file still has, and each stage it
reads from is fresh.  A fresh stage is skipped, so an interrupted pipeline
resumes without recomputing or re-issuing chat requests.  A stage runs only
when every upstream stage is fresh, else :class:`MissingStageError` names the
stale one (running every stage reruns it first), so a single-stage command
hashes every upstream output once, generation records included.  Each artifact
write is atomic (temp file, then rename): a crash leaves no half-written file
for a resume to take as complete, and the first stage a run executes removes
the temp files a killed run left, under the run-directory lock.

Within one :meth:`PipelineRunner.run`, a corpus is handed to the later
stages that load it (``Stage.loads``) without being read back: split's dev and
test views to evaluate (split reads each source once for every seed and holds
no source corpus), ``synthetic_<seed>`` from generate to pseudo-label and
denoise, ``denoised_<seed>`` from denoise to finetune-data-denoised.  It is
dropped after its last reader ran and when the run ends; a stage run on its
own loads the file.  No other result of a stage reaches another in memory.
The training views are written nowhere: split only checks the train rows, and
finetune-data builds every seed's view in one pass over the train source,
which it records as a source of its own.  With the mock predictor,
pseudo-label's oracle reads each document's true labels from the mock world,
which it rebuilds (a pure function of the config, seed and split) without
building a document.

A run hashes each file at most once.  A file it wrote takes the digest its
writer returned; any other file (config sources, run files of skipped stages)
is hashed on disk when the run first needs it.  No digest outlives a run and
none is skipped on size or mtime, so each run sees every earlier edit.  When
another process edits a file during a run, no stage records a digest other
than that of the bytes it used: a JSON file a stage parses (run files, the
registry, the DocRED sources, prediction files) is hashed from the very
bytes parsed, and a mismatch with the digest the stage recorded fails the
stage with a :class:`StageError` naming the file; a corpus handed over in
memory is the one its writer's digest describes.  Templates and a replayed
cassette are read by their own modules after they were hashed, so an edit in
between leaves the old digest recorded and the next run reruns the stage.

Run directory layout::

    format.json                 {"version": FORMAT_VERSION}; another format is refused
    effective_config.json       config used by the last stage that ran
    manifests/<stage>.json      one manifest per stage
    split/spec_<seed>.json      sampled unseen relations
    split/{dev,test}_<seed>.json
    generate/synthetic_<seed>.json, generate/records_<seed>.json
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
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .backends import CassetteBackend, ChatBackend, LiveChatBackend, RateLimiter, ScriptedBackend
from .config import PipelineConfig
from .denoise import denoise
from .docio import (
    ParseError,
    canonical_dumps,
    file_digest,
    iter_docred,
    load_corpus,
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
    EvaluationError,
    build_report,
    evaluate_re,
    evaluate_rte,
    index_predictions,
    load_predictions,
    render_report_text,
    save_predictions,
)
from .generate import ChainConfig, generate_corpus, records_chunks
from .model import Corpus, Document, RelationRegistry, ValidationError
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
from .simulate import chat_script, mock_generation_corpus, mock_world, world_truth
from .split import (SplitError, SplitSpec, kept_relations, sample_unseen, save_split_spec,
                    view_document, warn_if_empty)

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


def _config_files(*names: str) -> Callable[[PipelineConfig], dict[str, Path]]:
    return lambda cfg: {f"config:{name}": Path(getattr(cfg, name)) for name in names}


_registry_source = _config_files("registry")


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
            files.update({f"predictions:{name}:{seed}": _predictions_path(template, seed)
                          for seed in cfg.seeds})
    return files


@dataclass(frozen=True)
class Stage:
    """One pipeline stage as data.

    ``reads`` maps each upstream stage (its deps, in the order they are
    checked) to the keys of its outputs read here; ``writes`` maps output
    keys to run-file names with a ``{seed}`` slot, or none for a file of all
    seeds.  ``params`` names the config values the outputs depend on;
    ``params_when`` adds more while a config field has a given value.
    ``sources`` gives the config-named files read.  ``loads`` names the read
    keys that are corpora the runner may hand over in memory from an earlier
    stage of the same run.  The runner calls ``_stage_<name>(seeds)`` once,
    with every seed; the body loops over the seeds it is given and drops each
    seed's results before the next seed's are built.
    """

    name: str
    reads: Mapping[str, tuple[str, ...]]
    writes: Mapping[str, str]
    params: tuple[str, ...] = ()
    params_when: Mapping[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)
    sources: Callable[[PipelineConfig], dict[str, Path]] = _registry_source
    loads: tuple[str, ...] = ()

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

    def output_files(self, seeds: Sequence[int]) -> list[str]:
        """Every run file written for ``seeds``, each once."""
        return list(dict.fromkeys(name.format(seed=seed)
                                  for seed in seeds for name in self.writes.values()))

    def upstream_files(self, seeds: Sequence[int]) -> dict[str, str]:
        """Every run file read for ``seeds``, mapped to the stage that wrote it."""
        return {STAGES[dep].writes[key].format(seed=seed): dep
                for dep, keys in self.reads.items() for key in keys for seed in seeds}


STAGES: dict[str, Stage] = {stage.name: stage for stage in (
    # split checks the train source; finetune-data derives its view from it
    Stage("split", reads={},
          writes={key: f"split/{key}_{{seed}}.json" for key in ("spec", "dev", "test")},
          params=("m",),
          sources=_config_files("registry", "train_docs", "dev_docs", "test_docs")),
    Stage("generate", reads={"split": ("spec",)},
          writes={"synthetic": "generate/synthetic_{seed}.json",
                  "records": "generate/records_{seed}.json"},
          params=tuple(f.name for f in fields(ChainConfig)) + ("backend",),
          params_when={("backend", "mock"): MOCK_WORLD, ("backend", "live"): LIVE_MODEL,
                       ("backend", "cassette"): LIVE_MODEL},
          sources=_generate_sources),
    Stage("finetune-data", reads={"split": ("spec",)},
          writes={"samples": "finetune/pretrain_{seed}.jsonl"},
          params=("group_size", "keep_empty_prob", "instruction", "mixed_policy"),
          sources=_config_files("registry", "train_docs")),
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
                  "predictions_test": "eval/predictions_test_{seed}.json",
                  "report_json": "report.json", "report_txt": "report.txt"},
          params=("final_predictor", "strict_seen", "instruction", "m", "mixed_policy"),
          params_when={("final_predictor", "mock"): ("mock.final_drop_prob",),
                       ("final_predictor", "process"): ("final_predictor_argv",),
                       ("final_predictor", "http"): ("final_predictor_url",),
                       ("final_predictor", "file"): ("predictions_dev", "predictions_test")},
          sources=_evaluate_sources, loads=("dev", "test")),
)}

STAGE_ORDER = tuple(STAGES)

FORMAT_VERSION = 2  # of the run directory: a layout change bumps it and keeps no old reader

# The gen-0 collection threshold while a stage body runs.  A stage allocates
# hundreds of thousands of container objects that live until it ends: at the
# default threshold (700), one cold run of the bench `cold-run` workload made
# about 900 collections that freed about 1,100 objects in all.  At this value
# it makes three.
STAGE_GC_GEN0 = 100_000


class _Held(NamedTuple):
    """A corpus kept in memory for a later stage of the current run."""

    digest: str  # of the bytes it was written as
    corpus: Corpus
    last_reader: str  # the stage after which it is dropped


@dataclass(eq=False)
class _Run:
    """The state of one :meth:`PipelineRunner.run`, or of one bare ``run_stage``."""

    stages: tuple[str, ...]  # in order
    # sha256 by path: the writer's digest for a file this run wrote, else
    # the file hashed on disk, once
    digests: dict[Path, str] = field(default_factory=dict)
    fresh: dict[str, StageManifest] = field(default_factory=dict)  # stages judged fresh
    inputs: dict[str, str] = field(default_factory=dict)  # recorded by the running stage
    config_written: bool = False  # whether effective_config.json echoes the config
    cassette: CassetteBackend | None = None  # generate's, shared by its seeds
    registry: RelationRegistry | None = None
    held: dict[Path, _Held] = field(default_factory=dict)  # by the file each was written to


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
        self._run: _Run | None = None  # set while a run goes on

    # -- small helpers ------------------------------------------------------

    @property
    def registry(self) -> RelationRegistry:
        """The relation registry, parsed once per run (on each use outside one)."""
        run, path = self._run, Path(self.config.registry)
        if run is None:
            return load_registry(path)
        if run.registry is None:
            run.registry = load_registry(path, self._digest(path))
        return run.registry

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

    def _digest(self, path: Path) -> str | None:
        """sha256 of ``path``, hashed on disk at most once per run; None if missing."""
        digests = self._run.digests
        if path not in digests:
            if not path.exists():
                return None
            digests[path] = file_digest(path)
        return digests[path]

    def _input(self, stage: str, seed: int, key: str) -> tuple[Path, str]:
        """Input ``key`` of ``stage``: its path and the digest the stage records."""
        rel = STAGES[stage].inputs(seed)[key]
        return self.path(rel), self._run.inputs[rel]

    def _spec(self, stage: str, seed: int) -> SplitSpec:
        return SplitSpec.from_manifest(load_json(*self._input(stage, seed, "spec")))

    # -- freshness ------------------------------------------------------------

    def _config_inputs(self, stage: str) -> dict[str, str]:
        """Digests of the params and the source files a stage depends on."""
        entry = STAGES[stage]
        params = {"seeds": list(self.config.seeds), **entry.param_values(self.config)}
        digests = {"params": sha256_text(canonical_dumps(params))}
        for key, path in entry.sources(self.config).items():
            digest = self._digest(path)
            if digest is None:
                raise StageError(f"{key} points to a missing file: {path}")
            digests[key] = digest
        return digests

    def _fresh_manifest(self, stage: str, consumer: str) -> StageManifest:
        """The manifest of ``stage`` if it is fresh by the rule that skips a
        stage, judged once per run; else a :class:`MissingStageError` for ``consumer``."""
        fresh = self._run.fresh
        if stage not in fresh:
            manifest = self.read_manifest(stage)
            if manifest is None or manifest.status != "ok":
                raise MissingStageError(f"missing stage: {stage} (run it before {consumer!r})")
            self._check_deps(stage, consumer)
            if changed := self._changed(stage, self._compute_inputs(stage), manifest):
                raise _stale(stage, changed, consumer)
            fresh[stage] = manifest
        return fresh[stage]

    def _check_deps(self, stage: str, consumer: str | None = None) -> None:
        for dep in STAGES[stage].deps:
            self._fresh_manifest(dep, consumer or stage)

    def _compute_inputs(self, stage: str) -> dict[str, str]:
        """The input digests ``stage`` would record now; a run file it reads
        takes the digest its writer, judged fresh, recorded for it."""
        inputs = self._config_inputs(stage)
        for rel, dep in STAGES[stage].upstream_files(self.config.seeds).items():
            inputs[rel] = self._run.fresh[dep].outputs[rel]
        return inputs

    def _changed(self, stage: str, inputs: dict[str, str], manifest: StageManifest) -> list[str]:
        """What changed since ``stage`` recorded ``manifest``, its upstream
        stages judged fresh: the input keys whose digest differs from
        ``inputs`` or, when none does, the outputs that are not intact."""
        changed = [key for key in sorted(inputs.keys() | manifest.inputs.keys())
                   if inputs.get(key) != manifest.inputs.get(key)]
        return changed or self._outputs_intact(stage, manifest)

    def _outputs_intact(self, stage: str, manifest: StageManifest) -> list[str]:
        """The outputs ``stage`` declares that are not intact: ``manifest``
        does not record them, or their file no longer has the recorded digest."""
        recorded = manifest.outputs
        return [rel for rel in STAGES[stage].output_files(self.config.seeds)
                if rel not in recorded or self._digest(self.path(rel)) != recorded[rel]]

    def _write(self, stage: str, seed: int | None, key: str, write: Callable[[Path], str]) -> Path:
        """Write output ``key`` of ``stage`` with ``write``; keep the digest it returns."""
        path = self.path(STAGES[stage].writes[key].format(seed=seed))
        self._run.digests[path] = write(path)
        return path

    def _digest_written(self, stage: str, rel_paths: Iterable[str]) -> dict[str, str]:
        digests = {}
        for rel in rel_paths:
            digest = self._run.digests.get(self.path(rel))
            if digest is None:
                raise StageError(f"stage {stage} finished without writing {self.path(rel)}")
            digests[rel] = digest
        return digests

    # -- skip / run machinery -------------------------------------------------

    def run_stage(self, stage: str, force: bool = False) -> StageOutcome:
        """Run one stage for every seed, or skip it when it is still fresh."""
        if stage not in STAGES:
            raise StageError(f"unknown stage: {stage!r}")
        run = self._run
        if run is None:  # a bare call is a run of this one stage
            with run_lock(self.run_dir), self._running((stage,)):
                return self.run_stage(stage, force)
        self._check_deps(stage)
        inputs = run.inputs = self._compute_inputs(stage)
        manifest = self.read_manifest(stage)
        if manifest is None:
            reason = "no manifest"
        elif manifest.status != "ok":
            reason = "failed"
        elif force:
            reason = "forced"
        elif changed := self._changed(stage, inputs, manifest):
            reason = "changed: " + ", ".join(changed)
        else:
            logger.info("stage %s: up to date, skipping", stage)
            run.fresh[stage] = manifest
            return StageOutcome(stage=stage, status="skipped")

        # this stage's outputs, and so every later stage's verdict, may change
        for name in STAGE_ORDER[STAGE_ORDER.index(stage):]:
            run.fresh.pop(name, None)
        if not run.config_written:
            for tmp in self.run_dir.rglob("*.tmp"):  # what a killed run's writes left
                tmp.unlink()
            write_json_atomic(self.path("effective_config.json"), self.config.to_json())
            write_json_atomic(self.path("format.json"), {"version": FORMAT_VERSION})
            run.config_written = True
        started = _now()
        body = getattr(self, "_stage_" + stage.replace("-", "_"))
        thresholds = gc.get_threshold()
        gc.set_threshold(max(STAGE_GC_GEN0, thresholds[0]), *thresholds[1:])
        try:
            body(self.config.seeds)
            outputs = self._digest_written(stage, STAGES[stage].output_files(self.config.seeds))
        except Exception as exc:
            self._write_manifest(StageManifest(
                stage=stage, status="failed", inputs=inputs, outputs={},
                started_at=started, finished_at=_now(), error=str(exc),
            ))
            # Input-format, validation, split-parameter and predictions-file problems
            # keep their type so the CLI can report them as bad input, not a pipeline fault.
            if isinstance(exc, (StageError, ParseError, ValidationError, SplitError,
                                EvaluationError)):
                raise
            raise StageError(f"stage {stage} failed: {exc}") from exc
        finally:
            gc.set_threshold(*thresholds)

        manifest = StageManifest(
            stage=stage, status="ok", inputs=inputs, outputs=outputs,
            started_at=started, finished_at=_now(),
        )
        self._write_manifest(manifest)
        run.fresh[stage] = manifest
        logger.info("stage %s: ran (%s), %d output files", stage, reason, len(outputs))
        return StageOutcome(stage=stage, status="ran")

    def run(self, stages: Sequence[str] | None = None, force: bool = False) -> list[StageOutcome]:
        """Run the given stages (default: all) under the run-directory lock."""
        wanted = list(stages) if stages is not None else list(STAGE_ORDER)
        for stage in wanted:
            if stage not in STAGES:
                raise StageError(f"unknown stage: {stage!r}")
        ordered = tuple(s for s in STAGE_ORDER if s in wanted)
        with run_lock(self.run_dir), self._running(ordered) as run:
            outcomes = []
            for stage in ordered:
                outcomes.append(self.run_stage(stage, force=force))
                run.held = {key: held for key, held in run.held.items()
                            if held.last_reader != stage}
            return outcomes

    @contextmanager
    def _running(self, stages: tuple[str, ...]) -> Iterator[_Run]:
        """A new :class:`_Run` for ``stages``, dropped when they end, however they end."""
        self._check_format()
        self._run = _Run(stages)
        try:
            yield self._run
        finally:
            self._run = None

    def _check_format(self) -> None:
        """Refuse a run directory of another format: its ``format.json`` does not
        hold ``FORMAT_VERSION`` as its version, or is missing next to manifests."""
        path = self.path("format.json")
        if not path.exists():  # a directory without manifests is new
            version = None if any(self.run_dir.glob("manifests/*.json")) else FORMAT_VERSION
        else:
            try:
                version = load_json(path).get("version")
            except (ParseError, AttributeError):  # not JSON, or not an object
                version = None
        if type(version) is not int or version != FORMAT_VERSION:
            raise StageError(f"run directory {self.run_dir} is not of run-directory format "
                             f"{FORMAT_VERSION}; give another --run-dir, or delete the directory")

    # -- corpora handed over within a run -----------------------------------

    def _save_corpus(self, stage: str, seed: int, key: str, corpus: Corpus) -> None:
        """Write output ``key`` of ``stage``; keep it for the later stages of
        this run that load it."""
        run = self._run
        path = self._write(stage, seed, key, lambda path: save_corpus(corpus, path))
        readers = [s for s in run.stages[run.stages.index(stage) + 1:]
                   if stage in STAGES[s].reads and key in STAGES[s].loads]
        if readers:
            run.held[path] = _Held(run.digests[path], corpus, readers[-1])

    def _load_corpus(self, stage: str, seed: int, key: str) -> Corpus:
        """Input ``key`` of ``stage``: the corpus kept earlier in this run if
        it is what the stage recorded, else the file loaded."""
        path, digest = self._input(stage, seed, key)
        held = self._run.held.get(path)
        if held is not None and held.digest == digest:
            return held.corpus
        return load_corpus(path, self.registry, digest)

    # -- transports -----------------------------------------------------------

    def default_chat_backend(self, seed: int, spec: SplitSpec) -> ChatBackend:
        cfg, run = self.config, self._run  # run is None when another runner's factory calls this
        if cfg.backend == "mock":
            world, _, corrupted = mock_generation_corpus(
                self.registry, sorted(spec.unseen), sorted(spec.seen), seed,
                cfg.docs_per_relation, cfg.n_related, cfg.mock)
            return ScriptedBackend(chat_script(world, corrupted), record_calls=False)
        if cfg.backend == "cassette":
            # one per run: the seeds of a replay consume the file in recorded order
            run = run or _Run(())  # outside a run, one of its own
            if run.cassette is None:
                inner = self._live_backend() if cfg.cassette_mode == "record" else None
                run.cassette = CassetteBackend(cfg.cassette_path, mode=cfg.cassette_mode,
                                               inner=inner)
            return run.cassette
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

    def default_pseudo_predictor(self, seed: int, spec: SplitSpec) -> PredictorBackend:
        cfg, unseen = self.config, sorted(spec.unseen)
        return self._predictor("predictor", lambda: OraclePredictor(
            world_truth(mock_world(self.registry, unseen, sorted(spec.seen), seed,
                                   cfg.n_related, cfg.mock),
                        cfg.docs_per_relation, cfg.mock.facts_per_doc, seed),
            self.registry, drop_prob=cfg.mock.pseudo_drop_prob, seed=seed, restrict_to=unseen))

    def default_final_predictor(self, seed: int, spec: SplitSpec, gold: Corpus,
                                split_name: str) -> PredictorBackend:
        return self._predictor("final_predictor", lambda: OraclePredictor(
            gold, self.registry, drop_prob=self.config.mock.final_drop_prob,
            seed=seed * 2 + (0 if split_name == "dev" else 1)))

    # -- stages ---------------------------------------------------------------

    def _stage_split(self, seeds: Sequence[int]) -> None:
        specs = [sample_unseen(self.registry, self.config.m, seed) for seed in seeds]
        # the train rows are checked; finetune-data builds the training views
        views = self._views(specs, ("dev", "test"), checked=("train",))
        for spec in specs:
            dev, test = views.pop(spec.seed)
            warn_if_empty(spec, eval_dev=dev, eval_test=test)
            self._write("split", spec.seed, "spec", lambda path: save_split_spec(spec, path))
            self._save_corpus("split", spec.seed, "dev", dev)
            self._save_corpus("split", spec.seed, "test", test)

    def _views(self, specs: Sequence[SplitSpec], keys: Sequence[str],
               checked: Sequence[str] = ()) -> dict[int, list[Corpus]]:
        """The views ``keys`` (of the sources in config fields ``<key>_docs``)
        of each of ``specs``, by seed, reading each source file once: each
        row is checked as it is read, and a document is built for it only if
        some view keeps it.  The sources of ``checked`` are read and checked
        too, for no view."""
        run, cfg, registry = self._run, self.config, self.registry
        paths = {key: Path(getattr(cfg, f"{key}_docs")) for key in (*checked, *keys)}
        views: dict[tuple[int, str], list[Document]] = {
            (spec.seed, key): [] for spec in specs for key in keys}
        for path in dict.fromkeys(paths.values()):
            source = next(key for key in paths if paths[key] == path)
            named = [(key, spec, cfg.mixed_policy if key == "train" else None)
                     for key, spec in product(keys, specs) if paths[key] == path]

            def keep(relations: set[str]) -> bool:
                return any(kept_relations(relations, spec, policy) is not None
                           for _, spec, policy in named)

            for doc in iter_docred(path, registry, run.inputs[f"config:{source}_docs"], keep):
                for key, spec, policy in named:
                    view = view_document(doc, spec, policy)
                    if view is not None:
                        views[spec.seed, key].append(view)
        return {spec.seed: [Corpus(views[spec.seed, key], "human", registry) for key in keys]
                for spec in specs}

    def _stage_generate(self, seeds: Sequence[int]) -> None:
        cfg = self.config
        for seed in seeds:
            spec = self._spec("generate", seed)
            corpus, records = generate_corpus(
                self.chat_backend_factory(self, seed, spec), sorted(spec.unseen), self.registry,
                cfg.chain(), prompts=PromptLibrary(cfg.templates_dir), parallelism=cfg.parallelism)
            self._save_corpus("generate", seed, "synthetic", corpus)
            self._write("generate", seed, "records",
                        lambda path: write_chunks_atomic(path, records_chunks(records)))
            del corpus, records  # before the next seed's chains run

    def _write_samples(self, stage: str, seed: int, corpus: Corpus,
                       groups: Sequence[RelationGroup]) -> None:
        cfg = self.config
        policy = FinetunePolicy(instruction=cfg.instruction,
                                keep_empty_prob=cfg.keep_empty_prob, seed=seed)
        samples = assemble_finetune_dataset(corpus, groups, policy, self.registry)
        self._write(stage, seed, "samples", lambda path: write_finetune_file(samples, path))

    def _stage_finetune_data(self, seeds: Sequence[int]) -> None:
        specs = [self._spec("finetune-data", seed) for seed in seeds]
        views = self._views(specs, ("train",))
        for spec in specs:
            groups = partition_relations(sorted(spec.seen), self.config.group_size, seed=spec.seed)
            self._write_samples("finetune-data", spec.seed, views.pop(spec.seed)[0], groups)

    def _stage_pseudo_label(self, seeds: Sequence[int]) -> None:
        cfg = self.config
        for seed in seeds:
            spec = self._spec("pseudo-label", seed)
            synthetic = self._load_corpus("pseudo-label", seed, "synthetic")
            labels = infer_pseudo_labels(self.predictor_factory(self, seed, spec), synthetic,
                                         sorted(spec.unseen), cfg.instruction, self.registry)
            self._write("pseudo-label", seed, "pseudo",
                        lambda path: write_json_atomic(path, labels.to_json(), compact=True))
            del synthetic, labels

    def _stage_denoise(self, seeds: Sequence[int]) -> None:
        for seed in seeds:
            spec = self._spec("denoise", seed)
            synthetic = self._load_corpus("denoise", seed, "synthetic")
            pseudo = PseudoLabelSet.from_json(load_json(*self._input("denoise", seed, "pseudo")))
            denoised, report, rows = denoise(synthetic, pseudo.fact_sets(), sorted(spec.unseen))
            self._save_corpus("denoise", seed, "denoised", denoised)
            self._write("denoise", seed, "kg",
                        lambda path: write_json_atomic(path, rows, compact=True))
            self._write("denoise", seed, "report",
                        lambda path: write_json_atomic(path, report.to_json()))
            del synthetic, pseudo, denoised, report, rows

    def _stage_finetune_data_denoised(self, seeds: Sequence[int]) -> None:
        for seed in seeds:
            spec = self._spec("finetune-data-denoised", seed)
            groups = [RelationGroup(index=0, relations=tuple(sorted(spec.unseen)))]
            self._write_samples("finetune-data-denoised", seed, self._load_corpus(
                "finetune-data-denoised", seed, "denoised"), groups)

    def _final_predictions(self, seed: int, spec: SplitSpec, gold: Corpus,
                           split_name: str) -> dict[str, list[tuple[str, str, str]]]:
        cfg = self.config
        if cfg.final_predictor == "file":
            template = cfg.predictions_dev if split_name == "dev" else cfg.predictions_test
            path = _predictions_path(template, seed)
            raw = load_predictions(path, self._run.inputs[f"predictions:{split_name}:{seed}"])
            resolved: dict[str, list[tuple[str, str, str]]] = {}
            for doc_id, triples in raw.items():
                rows = []
                for head, tail, token in triples:
                    rel = self.registry.resolve(token)
                    if rel is None:
                        raise EvaluationError(
                            f"{path}: unknown relation {token!r} in predictions "
                            f"for document {doc_id}"
                        )
                    rows.append((head, tail, rel.id))
                resolved[doc_id] = rows
            stray = sorted(set(resolved) - set(gold.by_id()))
            if stray:  # scoring would raise this too, but not name the file
                raise EvaluationError(f"{path}: predictions reference unknown document "
                                      f"id(s): {stray[:5]}")
            return resolved
        predictor = self.final_predictor_factory(self, seed, spec, gold, split_name)
        predictions = predict_corpus(predictor, gold, sorted(spec.unseen),
                                     cfg.instruction, self.registry)
        return {doc_id: triplets or [] for doc_id, triplets in predictions.items()}

    def _stage_evaluate(self, seeds: Sequence[int]) -> None:
        cfg = self.config
        per_seed: dict[int, dict[str, dict[str, EvalResult]]] = {}
        for seed in seeds:
            spec = self._spec("evaluate", seed)
            results = per_seed[seed] = {}
            for split_name in ("dev", "test"):
                gold = self._load_corpus("evaluate", seed, split_name)
                preds = self._final_predictions(seed, spec, gold, split_name)
                self._write("evaluate", seed, f"predictions_{split_name}",
                            lambda path: save_predictions(preds, path))
                rte = evaluate_rte(preds, gold, spec.unseen, cfg.strict_seen)
                re_preds = index_predictions(preds, gold)
                re = evaluate_re(re_preds, gold, spec.unseen, cfg.strict_seen)
                results[split_name] = {"rte": rte, "re": re}
                scores = {"seed": seed, "split": split_name, "rte": asdict(rte), "re": asdict(re)}
                self._write("evaluate", seed, f"scores_{split_name}",
                            lambda path: write_json_atomic(path, scores))
            del gold, preds, re_preds
        report = build_report(cfg, per_seed)
        for key, text in (("report_json", canonical_dumps(report)),
                          ("report_txt", render_report_text(report))):
            self._write("evaluate", None, key, lambda path: write_text_atomic(path, text))

    # convenience used by the CLI after run-all
    def report_text(self) -> str:
        path = self.path("report.txt")
        return path.read_text(encoding="utf-8") if path.exists() else ""
