"""Orchestration: staged runs, resume-by-digest, locking, and the CLI."""
from __future__ import annotations

import gc
import json
import logging
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from docrte.backends import CassetteBackend, ChatBackend, CountingBackend, ScriptedBackend
from docrte.cli import main
from docrte.config import PipelineConfig, load_config
from docrte.docio import (
    canonical_dumps,
    corpus_chunks,
    file_digest,
    iter_docred,
    load_corpus,
    load_docred,
    load_json,
    load_registry,
    save_corpus,
    save_docred,
)
from docrte.generate import generate_corpus, load_records
from docrte.model import Corpus
from docrte.pipeline import (
    STAGE_GC_GEN0,
    STAGE_ORDER,
    STAGES,
    FORMAT_VERSION,
    MissingStageError,
    PipelineRunner,
    StageError,
)
from docrte.pseudo import HttpPredictor, OraclePredictor, PredictorError
from docrte.simulate import (
    build_world,
    chat_script,
    mock_generation_corpus,
    world_documents,
    write_demo_inputs,
)
from docrte.split import (
    MIXED_POLICIES,
    SplitError,
    apply_split,
    load_split_spec,
    sample_unseen,
    view_document,
)

from conftest import child_env

PIPELINE_CONFIG = {
    "registry": "registry.json",
    "train_docs": "train.json",
    "dev_docs": "dev.json",
    "test_docs": "test.json",
    "run_dir": "run",
    "m": 2,
    "seeds": [3, 5],
    "docs_per_relation": 4,
    "group_size": 6,
    "mock": {"facts_per_relation": 3, "facts_per_doc": 2},
}


@pytest.fixture
def workspace(tmp_path):
    write_demo_inputs(tmp_path, n_relations=16, seed=3)
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps(PIPELINE_CONFIG), encoding="utf-8")
    return config_path


def make_runner(config_path, **factories):
    return PipelineRunner(load_config(config_path), **factories)


@pytest.fixture
def reads(monkeypatch):
    """The names of the DocRED sources the runner parses, in order."""
    names = []

    def recording(path, *args):
        names.append(Path(path).name)
        return iter_docred(path, *args)

    monkeypatch.setattr("docrte.pipeline.iter_docred", recording)
    return names


def outcome_map(outcomes):
    return {o.stage: o.status for o in outcomes}


def outcomes_after_change(config_path, before, after, **factories):
    """Run with ``before`` applied to PIPELINE_CONFIG, then run with ``after``
    and return the second run's stage outcomes."""
    outcomes = {}
    for change in (before, after):
        config_path.write_text(json.dumps(dict(PIPELINE_CONFIG, **change)), encoding="utf-8")
        outcomes = outcome_map(make_runner(config_path, **factories).run())
    return outcomes


def ran(outcomes):
    return [stage for stage, status in outcomes.items() if status == "ran"]


# Config fields that are no stage's params: source files, whose digests are
# stage inputs, and settings no output depends on.
INERT_FIELDS = {
    "registry", "train_docs", "dev_docs", "test_docs", "templates_dir", "cassette_path",
    "seeds", "run_dir", "parallelism", "cassette_mode", "live.api_key_env", "live.timeout",
    "live.max_attempts", "live.rate_per_sec", "live.burst",
}


def run_tree_bytes(run_dir, exclude=("manifests", "effective_config.json", ".lock")):
    snapshot = {}
    for path in sorted(Path(run_dir).rglob("*")):
        rel = path.relative_to(run_dir)
        if not path.is_file() or rel.parts[0] in exclude or rel.name in exclude:
            continue
        snapshot[str(rel)] = path.read_bytes()
    return snapshot


class TestStageGraph:
    def test_every_stage_has_declared_dependencies(self):
        assert tuple(STAGES) == STAGE_ORDER
        for name, stage in STAGES.items():
            for dep, keys in stage.reads.items():
                assert STAGE_ORDER.index(dep) < STAGE_ORDER.index(name)
                assert set(keys) <= set(STAGES[dep].writes), (name, dep)
            # a stage's files are looked up by key, so read and written keys differ
            assert not set(stage.inputs(1)) & set(stage.writes), name
            assert set(stage.loads) <= set(stage.inputs(1)), name

    def test_every_config_field_is_a_param_or_declared_inert(self):
        config = PipelineConfig()
        names = set()
        for f in fields(config):
            value = getattr(config, f.name)
            names |= ({f"{f.name}.{g.name}" for g in fields(value)} if is_dataclass(value)
                      else {f.name})
        params = set()
        for stage in STAGES.values():
            params.update(stage.params, *stage.params_when.values())
        assert not params & INERT_FIELDS
        assert names == params | INERT_FIELDS


class TestFullRun:
    def test_all_stages_run_and_write_their_files(self, workspace):
        runner = make_runner(workspace)
        outcomes = runner.run()
        assert [o.stage for o in outcomes] == list(STAGE_ORDER)
        assert all(o.status == "ran" for o in outcomes)
        run = runner.run_dir
        for seed in (3, 5):
            # the training view is written nowhere
            assert not (run / f"split/train_{seed}.json").exists()
            for rel in (f"split/spec_{seed}.json",
                        f"split/dev_{seed}.json", f"split/test_{seed}.json",
                        f"generate/synthetic_{seed}.json",
                        f"generate/records_{seed}.json",
                        f"finetune/pretrain_{seed}.jsonl",
                        f"pseudo/pseudo_{seed}.json",
                        f"denoise/denoised_{seed}.json",
                        f"denoise/kg_{seed}.json",
                        f"denoise/report_{seed}.json",
                        f"finetune/denoised_{seed}.jsonl",
                        f"eval/dev_{seed}.json", f"eval/test_{seed}.json"):
                assert (run / rel).is_file(), rel
        assert (run / "report.json").is_file()
        assert (run / "report.txt").is_file()
        assert (run / "effective_config.json").is_file()
        assert not (run / ".lock").exists()
        for stage in STAGE_ORDER:
            manifest = runner.read_manifest(stage)
            assert manifest is not None and manifest.status == "ok"
            assert manifest.outputs

    def test_report_shape(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        report = json.loads((runner.run_dir / "report.json").read_text())
        assert report["m"] == 2
        assert report["seeds"] == [3, 5]
        assert set(report["per_seed"]) == {"3", "5"}
        for split in ("dev", "test"):
            agg = report["aggregate"][split]["rte"]
            assert set(agg) >= {"mean", "std", "n", "text"}
            assert agg["n"] == 2
        text = (runner.run_dir / "report.txt").read_text()
        assert "zero-shot document-level relation extraction" in text
        assert report["aggregate"]["dev"]["rte"]["text"] in text

    def test_rerun_skips_every_stage_and_touches_nothing(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        before = run_tree_bytes(runner.run_dir)
        again = outcome_map(make_runner(workspace).run())
        assert set(again.values()) == {"skipped"}
        assert run_tree_bytes(runner.run_dir) == before

    def test_force_reruns_even_when_up_to_date(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        outcomes = outcome_map(make_runner(workspace).run(["split"], force=True))
        assert outcomes == {"split": "ran"}


class TestResume:
    def test_tampered_output_reruns_only_that_stage(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        target = runner.run_dir / "denoise" / "kg_3.json"
        target.write_text('{"tampered": true}', encoding="utf-8")
        outcomes = outcome_map(make_runner(workspace).run())
        assert outcomes["denoise"] == "ran"
        # the stage regenerates identical bytes, so downstream digests match
        assert outcomes["finetune-data-denoised"] == "skipped"
        assert outcomes["evaluate"] == "skipped"
        assert outcomes["generate"] == "skipped"
        assert json.loads(target.read_text())!= {"tampered": True}

    def test_deleted_output_reruns_stage(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        (runner.run_dir / "finetune" / "pretrain_5.jsonl").unlink()
        outcomes = outcome_map(make_runner(workspace).run())
        assert outcomes["finetune-data"] == "ran"
        assert sum(1 for v in outcomes.values() if v == "ran") == 1

    def test_parameter_change_invalidates_only_dependents(self, workspace):
        make_runner(workspace).run()
        data = dict(PIPELINE_CONFIG)
        mock = dict(PIPELINE_CONFIG["mock"], final_drop_prob=0.5)
        for change in ({"strict_seen": True}, {"mock": mock}):
            data.update(change)
            workspace.write_text(json.dumps(data), encoding="utf-8")
            outcomes = outcome_map(make_runner(workspace).run())
            assert outcomes["evaluate"] == "ran", change
            assert all(v == "skipped" for stage, v in outcomes.items()
                       if stage != "evaluate"), (change, outcomes)

    def test_group_size_change_touches_only_pretraining_data(self, workspace):
        make_runner(workspace).run()
        data = dict(PIPELINE_CONFIG, group_size=3)
        workspace.write_text(json.dumps(data), encoding="utf-8")
        outcomes = outcome_map(make_runner(workspace).run())
        assert outcomes["finetune-data"] == "ran"
        assert all(v == "skipped" for stage, v in outcomes.items()
                   if stage != "finetune-data")

    def test_input_corpus_change_invalidates_split(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        train = workspace.parent / "train.json"
        rows = json.loads(train.read_text())
        train.write_text(json.dumps(rows[:-1]), encoding="utf-8")
        outcomes = outcome_map(make_runner(workspace).run())
        assert outcomes["split"] == "ran"

    def test_mixed_policy_change_reaches_the_report(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, mixed_policy="strip")),
                             encoding="utf-8")
        outcomes = outcome_map(make_runner(workspace).run())
        assert outcomes["evaluate"] == "ran"
        report = json.loads((runner.run_dir / "report.json").read_text())
        assert report["mixed_policy"] == "strip"

    def test_mixed_policy_change_reruns_only_finetune_data_and_evaluate(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        before = run_tree_bytes(runner.run_dir)
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, mixed_policy="strip")),
                             encoding="utf-8")
        assert ran(outcome_map(make_runner(workspace).run())) == ["finetune-data", "evaluate"]
        after = run_tree_bytes(runner.run_dir)
        shaped = ("finetune/pretrain_", "eval/", "report.")
        assert after.keys() == before.keys()
        assert {rel: data for rel, data in after.items() if not rel.startswith(shaped)} == \
            {rel: data for rel, data in before.items() if not rel.startswith(shaped)}
        assert [rel for rel in after if rel.startswith(shaped[0]) and after[rel] != before[rel]]

    def test_stale_upstream_refuses_single_stage(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, m=3)), encoding="utf-8")
        with pytest.raises(MissingStageError, match="stale stage: split"):
            make_runner(workspace).run(["evaluate"])
        result = CliRunner().invoke(main, ["--config", str(workspace), "evaluate"])
        assert result.exit_code == 2
        assert "stale stage: split" in result.stderr
        outcomes = outcome_map(make_runner(workspace).run())
        assert set(outcomes.values()) == {"ran"}
        report = json.loads((runner.run_dir / "report.json").read_text())
        assert report["m"] == 3

    def test_refused_command_leaves_effective_config(self, workspace):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, m=3)), encoding="utf-8")
        runner = make_runner(workspace)
        runner.run()
        before = (runner.run_dir / "effective_config.json").read_bytes()
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, m=2)), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "evaluate"])
        assert result.exit_code == 2
        assert (runner.run_dir / "effective_config.json").read_bytes() == before

    def test_replayed_cassette_is_an_input_of_generate(self, workspace):
        def recording(runner, seed, spec):
            return CassetteBackend(workspace.parent / "a.json", mode="record",
                                   inner=runner.default_chat_backend(seed, spec))

        runner = make_runner(workspace, chat_backend_factory=recording)
        runner.run(["split", "generate"])
        recorded = run_tree_bytes(runner.run_dir / "generate")
        replay = dict(PIPELINE_CONFIG, backend="cassette", cassette_path="a.json")
        workspace.write_text(json.dumps(replay), encoding="utf-8")
        assert outcome_map(make_runner(workspace).run(["generate"])) == {"generate": "ran"}
        assert run_tree_bytes(runner.run_dir / "generate") == recorded
        assert outcome_map(make_runner(workspace).run(["generate"])) == {"generate": "skipped"}

        # the same responses plus one entry no request asks for
        cassette_b = workspace.parent / "b.json"
        cassette_b.write_bytes((workspace.parent / "a.json").read_bytes()
                               + b'{"request_hash":"0","response_text":"unused"}\n')
        workspace.write_text(json.dumps(dict(replay, cassette_path="b.json")), encoding="utf-8")
        with pytest.raises(MissingStageError, match="stale stage: generate"):
            make_runner(workspace).run(["pseudo-label"])
        assert outcome_map(make_runner(workspace).run(["generate"])) == {"generate": "ran"}
        assert run_tree_bytes(runner.run_dir / "generate") == recorded

    def test_extractor_argv_change_reruns_pseudo_label(self, workspace):
        def extractor(runner, seed, spec):
            synthetic = load_corpus(runner.path(f"generate/synthetic_{seed}.json"),
                                    runner.registry)
            return OraclePredictor(synthetic, runner.registry)

        outcomes = outcomes_after_change(
            workspace, {"predictor": "process", "predictor_argv": ["extract", "--v1"]},
            {"predictor": "process", "predictor_argv": ["extract", "--v2"]},
            predictor_factory=extractor)
        assert ran(outcomes) == ["pseudo-label"]

    def test_final_extractor_url_change_reruns_evaluate_only(self, workspace):
        def extractor(runner, seed, spec, gold, split_name):
            return OraclePredictor(gold, runner.registry)

        outcomes = outcomes_after_change(
            workspace, {"final_predictor": "http", "final_predictor_url": "http://localhost:1/a"},
            {"final_predictor": "http", "final_predictor_url": "http://localhost:1/b"},
            final_predictor_factory=extractor)
        assert ran(outcomes) == ["evaluate"]

    def test_denoised_corpus_change_reruns_evaluate(self, workspace):
        """Evaluate reads ``denoised_<seed>`` for freshness only: it scores an
        extractor trained on the denoised data, so new denoised data reruns it."""
        demo = load_config(workspace.parent / "config.json")
        denoised = {}
        for drop in (0.2, 0.6):
            config = replace(demo, mock=replace(demo.mock, pseudo_drop_prob=drop))
            outcomes = outcome_map(PipelineRunner(config).run())
            denoised[drop] = [Path(config.run_dir, f"denoise/denoised_{seed}.json").read_bytes()
                              for seed in config.seeds]
        assert denoised[0.2] != denoised[0.6]
        assert ran(outcomes) == ["pseudo-label", "denoise", "finetune-data-denoised", "evaluate"]

    def test_live_model_change_reruns_generate(self, workspace):
        def scripted(runner, seed, spec):
            mock = PipelineRunner(replace(runner.config, backend="mock"))
            return mock.default_chat_backend(seed, spec)

        live = {"backend": "live", "live": {"base_url": "http://localhost:1/v1", "model": "a"}}
        outcomes = outcomes_after_change(
            workspace, live, dict(live, live={"base_url": "http://localhost:1/v1", "model": "b"}),
            chat_backend_factory=scripted)
        assert ran(outcomes) == ["generate"]

    @pytest.mark.parametrize("rel, writer", [
        ("generate/synthetic_3.json", "generate"),
        ("denoise/kg_3.json", "denoise"),  # read by no stage
        ("denoise/denoised_3.json", "denoise"),
    ], ids=["synthetic", "kg", "denoised"])
    def test_tampered_upstream_output_refuses_single_stage(self, workspace, rel, writer):
        runner = make_runner(workspace)
        runner.run()
        target = runner.run_dir / rel
        target.write_text(target.read_text() + " ", encoding="utf-8")
        message = f"stale stage: {writer} (changed since it ran: {rel}; rerun it before 'evaluate')"
        with pytest.raises(MissingStageError, match=re.escape(message)):
            make_runner(workspace).run(["evaluate"])
        result = CliRunner().invoke(main, ["--config", str(workspace), "evaluate"])
        assert result.exit_code == 2
        assert message in result.stderr

    def test_upstream_manifest_without_an_output_read_refuses_single_stage(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        path = runner.manifest_path("denoise")
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["outputs"]["denoise/denoised_3.json"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(MissingStageError, match=re.escape(
                "stale stage: denoise (changed since it ran: denoise/denoised_3.json;")):
            make_runner(workspace).run(["evaluate"])

    def test_log_names_why_a_stage_ran(self, workspace, caplog):
        caplog.set_level(logging.INFO, logger="docrte.pipeline")
        runner = make_runner(workspace)
        runner.run(["split"])
        runner.run(["split"], force=True)
        (runner.run_dir / "split" / "dev_5.json").unlink()
        runner.run(["split"])
        manifest = json.loads(runner.manifest_path("split").read_text(encoding="utf-8"))
        runner.manifest_path("split").write_text(json.dumps(dict(manifest, status="failed")),
                                                 encoding="utf-8")
        runner.run(["split"])
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, m=3)), encoding="utf-8")
        make_runner(workspace).run(["split"])
        make_runner(workspace).run(["split"])
        whys = ("no manifest", "forced", "changed: split/dev_5.json", "failed", "changed: params")
        assert [r.getMessage() for r in caplog.records if r.name == "docrte.pipeline"] == [
            *(f"stage split: ran ({why}), 6 output files" for why in whys),
            "stage split: up to date, skipping"]

    def test_unwritten_output_records_failed_manifest(self, workspace):
        class SkipsSeed5(PipelineRunner):
            def _stage_finetune_data(self, seeds):
                super()._stage_finetune_data([seed for seed in seeds if seed != 5])

        make_runner(workspace).run()
        runner = SkipsSeed5(load_config(workspace))
        (runner.run_dir / "finetune" / "pretrain_5.jsonl").unlink()
        with pytest.raises(StageError, match="without writing"):
            runner.run(["finetune-data"])
        assert runner.read_manifest("finetune-data").status == "failed"

    def test_missing_dependency_is_reported(self, workspace):
        runner = make_runner(workspace)
        with pytest.raises(MissingStageError, match="generate"):
            runner.run(["denoise"])

    def test_interrupted_final_stage_resumes_without_chat_calls(self, workspace):
        def exploding_final(runner, seed, spec, gold, split_name):
            raise RuntimeError("predictor crashed")

        first = make_runner(workspace, final_predictor_factory=exploding_final)
        with pytest.raises(StageError, match="predictor crashed"):
            first.run()
        failed = first.read_manifest("evaluate")
        assert failed is not None and failed.status == "failed"
        assert "predictor crashed" in (failed.error or "")
        done_manifests = {
            stage: first.manifest_path(stage).read_bytes()
            for stage in STAGE_ORDER if stage != "evaluate"
        }

        backends = []

        def counting_chat(runner, seed, spec):
            backend = CountingBackend(runner.default_chat_backend(seed, spec))
            backends.append(backend)
            return backend

        second = make_runner(workspace, chat_backend_factory=counting_chat)
        outcomes = outcome_map(second.run())
        assert outcomes["evaluate"] == "ran"
        assert all(v == "skipped" for stage, v in outcomes.items()
                   if stage != "evaluate")
        assert sum(b.calls for b in backends) == 0
        for stage, payload in done_manifests.items():
            assert second.manifest_path(stage).read_bytes() == payload


class TestFinalPredictor:
    def test_predictor_error_fails_evaluate_and_closes_once(self, workspace):
        predictors = []

        class FailsOnSecondDocument:
            def __init__(self, inner):
                self.inner, self.calls, self.closes = inner, 0, 0

            def predict(self, instruction, document_text, relation_names):
                self.calls += 1
                if self.calls == 2:
                    raise PredictorError("model server went away")
                return self.inner.predict(instruction, document_text, relation_names)

            def close(self):
                self.closes += 1

        def failing_final(runner, seed, spec, gold, split_name):
            assert len(gold.documents) >= 2
            predictor = FailsOnSecondDocument(
                runner.default_final_predictor(seed, spec, gold, split_name))
            predictors.append(predictor)
            return predictor

        runner = make_runner(workspace, final_predictor_factory=failing_final)
        with pytest.raises(StageError, match="model server went away"):
            runner.run()
        assert runner.read_manifest("evaluate").status == "failed"
        assert [p.closes for p in predictors] == [1]

    def test_unparseable_answer_scores_as_no_predictions(self, workspace):
        garbled = {}

        class GarblesFirstDocument:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def predict(self, instruction, document_text, relation_names):
                self.calls += 1
                if self.calls == 1:
                    return "I could not find any relations here."
                return self.inner.predict(instruction, document_text, relation_names)

        def garbling_final(runner, seed, spec, gold, split_name):
            garbled[(seed, split_name)] = gold.documents[0].doc_id
            return GarblesFirstDocument(
                runner.default_final_predictor(seed, spec, gold, split_name))

        runner = make_runner(workspace, final_predictor_factory=garbling_final)
        assert outcome_map(runner.run())["evaluate"] == "ran"
        for (seed, split_name), doc_id in garbled.items():
            path = runner.run_dir / "eval" / f"predictions_{split_name}_{seed}.json"
            assert json.loads(path.read_text())[doc_id] == []


class TestFilePredictor:
    """The ``file`` final predictor scores prediction files named by
    ``{seed}`` templates; they are sources of evaluate."""

    def test_written_predictions_score_as_the_run_that_wrote_them(self, workspace, tmp_path):
        runner = make_runner(workspace)
        runner.run()
        copies = tmp_path / "preds"
        copies.mkdir()
        for rel in runner.read_manifest("evaluate").outputs:
            if rel.startswith("eval/predictions_"):
                (copies / Path(rel).name).write_bytes(runner.path(rel).read_bytes())
        report = {name: runner.path(name).read_bytes() for name in ("report.json", "report.txt")}
        workspace.write_text(json.dumps(dict(
            PIPELINE_CONFIG, final_predictor="file",
            predictions_dev=str(copies / "predictions_dev_{seed}.json"),
            predictions_test=str(copies / "predictions_test_{seed}.json"))), encoding="utf-8")
        assert ran(outcome_map(make_runner(workspace).run())) == ["evaluate"]
        assert {name: runner.path(name).read_bytes() for name in report} == report
        edited = copies / "predictions_test_5.json"
        rows = json.loads(edited.read_text(encoding="utf-8"))
        edited.write_text(json.dumps(dict(list(rows.items())[1:])), encoding="utf-8")
        assert ran(outcome_map(make_runner(workspace).run())) == ["evaluate"]


class TestLocking:
    def test_foreign_lock_refuses_to_run(self, workspace):
        runner = make_runner(workspace)
        runner.run_dir.mkdir(parents=True, exist_ok=True)
        (runner.run_dir / ".lock").write_text("12345\n", encoding="utf-8")
        with pytest.raises(StageError, match="locked"):
            runner.run(["split"])
        (runner.run_dir / ".lock").unlink()
        assert outcome_map(runner.run(["split"])) == {"split": "ran"}
        assert not (runner.run_dir / ".lock").exists()

    def test_lock_of_a_killed_holder_does_not_refuse_the_next_run(self, workspace):
        runner = make_runner(workspace)
        env = child_env()
        for _ in range(2):  # the second holder takes over what the first left
            holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(runner.run_dir)],
                                      stdout=subprocess.PIPE, text=True, env=env)
            try:
                assert holder.stdout.readline() == "locked\n"
                with pytest.raises(StageError, match="locked"):
                    runner.run(["split"])  # the holder is alive
                holder.kill()  # SIGKILL: the holder runs no cleanup
                holder.wait(timeout=30)
            finally:
                holder.kill()
                holder.wait(timeout=30)
                holder.stdout.close()
            assert (runner.run_dir / ".lock").exists()
        assert outcome_map(runner.run(["split"])) == {"split": "ran"}
        assert not (runner.run_dir / ".lock").exists()


HOLD_LOCK = """
import sys, time
from pathlib import Path
from docrte.pipeline import run_lock
with run_lock(Path(sys.argv[1])):
    print("locked", flush=True)
    time.sleep(120)
"""


class TestCrashResidue:
    def test_resume_after_a_kill_inside_a_write_leaves_a_clean_tree(self, workspace, tmp_path):
        runner = make_runner(workspace)
        killed = subprocess.run([sys.executable, "-c", DIE_INSIDE_A_WRITE, str(workspace),
                                 "synthetic_3.json"], env=child_env(), timeout=120)
        assert killed.returncode == 3
        assert [p.name for p in runner.run_dir.rglob("*.tmp")]  # the write's temp file
        assert "ran" in outcome_map(runner.run()).values()
        reference = PipelineRunner(load_config(workspace, run_dir=str(tmp_path / "reference")))
        reference.run()
        assert run_tree_bytes(runner.run_dir) == run_tree_bytes(reference.run_dir)


# Kill the process, as SIGKILL would, once the first chunk of a write of the
# file named by argv[2] is handed over: no ``finally`` and no ``except`` runs.
DIE_INSIDE_A_WRITE = """
import os, sys
from pathlib import Path
from docrte import docio
from docrte.config import load_config
from docrte.pipeline import PipelineRunner
write = docio.write_chunks_atomic

def dying(path, chunks):
    if Path(path).name != sys.argv[2]:
        return write(path, chunks)
    def first_then_exit():
        yield next(iter(chunks))
        os._exit(3)
    return write(path, first_then_exit())

docio.write_chunks_atomic = dying
PipelineRunner(load_config(sys.argv[1])).run()
"""


class TestCollectorPolicy:
    def test_stage_body_runs_with_raised_gen0_threshold(self, workspace):
        before = gc.get_threshold()
        seen = []

        def watching(runner, seed, spec):
            seen.append(gc.get_threshold())
            return runner.default_pseudo_predictor(seed, spec)

        def exploding(runner, seed, spec):
            raise RuntimeError("predictor crashed")

        try:
            runner = make_runner(workspace, predictor_factory=watching)
            runner.run(["split", "generate"])
            assert gc.get_threshold() == before
            assert runner.run_stage("pseudo-label").status == "ran"
            raised = (max(STAGE_GC_GEN0, before[0]),) + before[1:]
            assert seen == [raised] * len(PIPELINE_CONFIG["seeds"])
            assert gc.get_threshold() == before
            failing = make_runner(workspace, predictor_factory=exploding)
            with pytest.raises(StageError, match="predictor crashed"):
                failing.run_stage("pseudo-label", force=True)
            assert gc.get_threshold() == before
        finally:
            gc.set_threshold(*before)


class ThrottlingSession:
    """A predictor server that answers each document 429 once, then with the
    block the mock oracle gives it."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.throttled = set()

    def post(self, url, json=None, timeout=None):
        if json["document"] not in self.throttled:
            self.throttled.add(json["document"])
            return SimpleNamespace(status_code=429, text="slow down", headers={})
        block = self.oracle.predict(json["instruction"], json["document"], json["relations"])
        return SimpleNamespace(status_code=200, text=block)

    def close(self):
        pass


class TestHttpPredictor:
    def test_pseudo_label_rides_out_a_429_per_document(self, workspace, tmp_path, monkeypatch):
        slept, sessions = [], []
        monkeypatch.setattr("docrte.backends.time.sleep", slept.append)

        def throttled(runner, seed, spec):
            sessions.append(ThrottlingSession(runner.default_pseudo_predictor(seed, spec)))
            return HttpPredictor("http://extractor.local/predict", session=sessions[-1])

        runner = make_runner(workspace, predictor_factory=throttled)
        runner.run(["split", "generate"])
        assert runner.run_stage("pseudo-label").status == "ran"
        for seed in PIPELINE_CONFIG["seeds"]:
            assert load_json(runner.path(f"pseudo/pseudo_{seed}.json"))["unlabeled_docs"] == []
        throttled = sum(len(session.throttled) for session in sessions)
        assert throttled and slept == [0.5] * throttled
        reference = PipelineRunner(load_config(workspace, run_dir=str(tmp_path / "reference")))
        reference.run(["split", "generate", "pseudo-label"])
        assert pseudo_bytes(runner.run_dir) == pseudo_bytes(reference.run_dir)


class TestMockBackend:
    def test_runner_mock_backend_keeps_no_transcripts(self, workspace):
        built = []

        def keeping(runner, seed, spec):
            built.append(runner.default_chat_backend(seed, spec))
            return built[-1]

        make_runner(workspace, chat_backend_factory=keeping).run(["split", "generate"])
        assert len(built) == len(PIPELINE_CONFIG["seeds"])
        assert all(backend.calls == [] for backend in built)


def pseudo_bytes(run_dir):
    return {seed: (Path(run_dir) / f"pseudo/pseudo_{seed}.json").read_bytes()
            for seed in PIPELINE_CONFIG["seeds"]}


class TestWorldHandoff:
    """Generate's mock backend builds each seed's world and its corpora.
    Pseudo-label's mock oracle rebuilds only the world and reads each title's
    true labels from it, in a run of its own as in a cold run."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The seeds of the calls to mock_generation_corpus and to world_documents."""
        seeds = {"corpora": [], "documents": []}

        def counting(registry, unseen, seen, seed, *rest):
            seeds["corpora"].append(seed)
            return mock_generation_corpus(registry, unseen, seen, seed, *rest)

        def documents(world, docs_per_relation, facts_per_doc, seed, *rest):
            seeds["documents"].append(seed)
            return world_documents(world, docs_per_relation, facts_per_doc, seed, *rest)

        monkeypatch.setattr("docrte.pipeline.mock_generation_corpus", counting)
        monkeypatch.setattr("docrte.simulate.world_documents", documents)
        return seeds

    def test_cold_run_builds_each_world_once(self, workspace, builds):
        make_runner(workspace).run()
        seeds = PIPELINE_CONFIG["seeds"]
        assert builds == {"corpora": seeds, "documents": seeds}  # all by generate

    def test_pseudo_label_alone_rebuilds_the_world(self, workspace, builds):
        runner = make_runner(workspace)
        runner.run()
        before = pseudo_bytes(runner.run_dir)
        builds["corpora"].clear()
        builds["documents"].clear()
        outcomes = make_runner(workspace).run(["pseudo-label"], force=True)
        assert outcome_map(outcomes) == {"pseudo-label": "ran"}
        assert builds == {"corpora": [], "documents": []}
        assert pseudo_bytes(runner.run_dir) == before

    def test_chat_factory_without_the_default_backend(self, workspace, tmp_path):
        def own_world(runner, seed, spec):
            cfg = runner.config
            world, _, corrupted = mock_generation_corpus(
                runner.registry, sorted(spec.unseen), sorted(spec.seen), seed,
                cfg.docs_per_relation, cfg.n_related, cfg.mock)
            return ScriptedBackend(chat_script(world, corrupted))

        default = make_runner(workspace)
        default.run()
        custom = PipelineRunner(load_config(workspace, run_dir=str(tmp_path / "custom")),
                                chat_backend_factory=own_world)
        custom.run()
        assert pseudo_bytes(custom.run_dir) == pseudo_bytes(default.run_dir)


GENERATED_CORPORA = ("generate/synthetic_", "denoise/denoised_")


class TestCorpusHandoff:
    """Within one run(), split's dev and test views and the generated corpora
    reach the later stages that load them without being read back from disk."""

    @pytest.fixture
    def loads(self, monkeypatch):
        paths = []

        def recording(path, *args):
            paths.append(Path(path).relative_to(Path(path).parents[1]).as_posix())
            return load_corpus(path, *args)

        monkeypatch.setattr("docrte.pipeline.load_corpus", recording)
        return paths

    def test_cold_run_loads_no_generated_corpus(self, workspace, loads):
        make_runner(workspace).run()
        assert loads == []  # no run-file corpus at all: split's views are handed over too

    def test_handed_over_corpora_equal_their_files(self, workspace):
        taken = []

        class Checking(PipelineRunner):
            def _load_corpus(self, stage, seed, key):
                corpus = super()._load_corpus(stage, seed, key)
                path = self.path(STAGES[stage].inputs(seed)[key])
                # equal when taken, so pseudo-label left synthetic unmutated
                # for denoise
                assert corpus == load_corpus(path, self.registry)
                taken.append((stage, seed, key, corpus))
                return corpus

            def _views(self, specs, keys, checked=()):
                views = super()._views(specs, keys, checked)
                if keys == ("train",):  # finetune-data's, built from the train source
                    source = load_docred(self.config.train_docs, self.registry)
                    for spec in specs:
                        view = apply_split(source, source, source, spec, self.config.mixed_policy)
                        assert views[spec.seed] == [view.train]
                        taken.append(("finetune-data", spec.seed, "train", views[spec.seed][0]))
                return views

        Checking(load_config(workspace)).run()
        seeds = PIPELINE_CONFIG["seeds"]
        assert [(stage, key) for stage, _, key, _ in taken] == (
            [("finetune-data", "train")] * len(seeds)
            + [("pseudo-label", "synthetic")] * len(seeds) + [("denoise", "synthetic")] * len(seeds)
            + [("finetune-data-denoised", "denoised")] * len(seeds)
            + [("evaluate", "dev"), ("evaluate", "test")] * len(seeds))
        by_seed = {(stage, seed): corpus for stage, seed, _, corpus in taken}
        for seed in seeds:
            assert by_seed["pseudo-label", seed] is by_seed["denoise", seed]

    # evaluate reads denoised_<seed> for freshness only and never loads it
    @pytest.mark.parametrize("stages", [["generate"], ["denoise", "evaluate"]])
    def test_a_run_without_a_later_reader_holds_nothing(self, workspace, stages):
        held = []

        class Watching(PipelineRunner):
            def _save_corpus(self, *args):
                super()._save_corpus(*args)
                held.append(len(self._run.held))

        make_runner(workspace).run()
        runner = Watching(load_config(workspace))
        runner.run(stages, force=True)
        assert held and set(held) == {0}
        assert runner._run is None

    def test_a_bare_run_stage_holds_nothing(self, workspace, loads):
        runner = make_runner(workspace)
        runner.run_stage("split")
        runner.run_stage("generate")
        assert runner._run is None
        runner.run_stage("pseudo-label")
        assert [p for p in loads if p.startswith("generate/synthetic_")]

    def test_full_run_holds_nothing_once_it_returns(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        assert runner._run is None

    def test_failed_run_holds_nothing_once_it_raises(self, workspace):
        def failing(runner, seed, spec):
            # synthetic_<seed> awaits pseudo-label and denoise
            assert [p for p in runner._run.held if p.name.startswith("synthetic_")]
            raise PredictorError("extractor is down")

        runner = make_runner(workspace, predictor_factory=failing)
        with pytest.raises(StageError, match="extractor is down"):
            runner.run()
        assert runner._run is None

    def test_digest_mismatch_loads_from_disk(self, workspace, loads, reads, tmp_path):
        class Mismatching(PipelineRunner):
            def _save_corpus(self, *args):
                super()._save_corpus(*args)
                self._run.held = {path: held._replace(digest="0" * 64)
                                  for path, held in self._run.held.items()}

        runner = Mismatching(load_config(workspace))
        runner.run()
        seeds = PIPELINE_CONFIG["seeds"]
        assert sorted(loads) == sorted(
            [f"generate/synthetic_{seed}.json" for seed in seeds] * 2
            + [f"denoise/denoised_{seed}.json" for seed in seeds]
            + [f"split/{key}_{seed}.json" for key in ("dev", "test") for seed in seeds])
        # finetune-data rebuilt the training views from the train source
        assert reads == ["train.json", "dev.json", "test.json", "train.json"]
        reference = PipelineRunner(load_config(workspace, run_dir=str(tmp_path / "reference")))
        reference.run()
        assert run_tree_bytes(runner.run_dir) == run_tree_bytes(reference.run_dir)

    def test_cold_run_equals_a_stage_by_stage_run(self, workspace, tmp_path):
        whole = load_config(workspace, run_dir=str(tmp_path / "whole"))
        staged = load_config(workspace, run_dir=str(tmp_path / "staged"))
        PipelineRunner(whole).run()
        for stage in STAGE_ORDER:
            assert outcome_map(PipelineRunner(staged).run([stage])) == {stage: "ran"}
        tree = run_tree_bytes(whole.run_dir)
        assert tree and tree == run_tree_bytes(staged.run_dir)


class TestTrainView:
    """Finetune-data derives each seed's training view from the train source
    and split's spec, building every seed's view in one pass over the source,
    whether or not split ran earlier in the same run."""

    @pytest.mark.parametrize("mixed_policy", MIXED_POLICIES)
    def test_separate_runs_write_what_one_run_writes(self, workspace, reads, tmp_path,
                                                     mixed_policy):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, seeds=[3, 5, 7], m=4,
                                             mixed_policy=mixed_policy)), encoding="utf-8")
        whole = load_config(workspace, run_dir=str(tmp_path / "whole"))
        staged = load_config(workspace, run_dir=str(tmp_path / "staged"))
        PipelineRunner(whole).run()
        PipelineRunner(staged).run(["split"])
        reads.clear()
        assert outcome_map(PipelineRunner(staged).run(["finetune-data"])) == {
            "finetune-data": "ran"}
        assert reads == ["train.json"]  # once for every seed
        one_run, separate = (run_tree_bytes(Path(config.run_dir, "finetune"))
                             for config in (whole, staged))
        assert len(separate) == 3 and all(one_run[rel] == separate[rel] for rel in separate)

    def test_train_source_edit_reruns_finetune_data(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        split = run_tree_bytes(runner.run_dir / "split")
        train = workspace.parent / "train.json"
        train.write_text(json.dumps(json.loads(train.read_text())[1:]), encoding="utf-8")
        assert ran(outcome_map(make_runner(workspace).run())) == ["split", "finetune-data"]
        assert run_tree_bytes(runner.run_dir / "split") == split  # every spec unchanged


class TestStreamedSplit:
    """Split reads each source file once for every seed and keeps only the
    dev and test views; finetune-data reads the train source once for every
    seed.  The views equal apply_split of the fully loaded sources."""

    @pytest.mark.parametrize("mixed_policy", MIXED_POLICIES)
    def test_views_equal_apply_split_of_the_loaded_sources(self, workspace, reads,
                                                          mixed_policy):
        seeds = [3, 5, 7]
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, seeds=seeds, m=4,
                                             mixed_policy=mixed_policy)), encoding="utf-8")
        train_views = {}

        class Keeping(PipelineRunner):
            def _views(self, specs, keys, checked=()):
                views = super()._views(specs, keys, checked)
                if keys == ("train",):
                    train_views.update({seed: view for seed, [view] in views.items()})
                return views

        runner = Keeping(load_config(workspace))
        runner.run(["split", "finetune-data"])
        # split checks the train rows, then finetune-data builds the views from them
        assert reads == ["train.json", "dev.json", "test.json", "train.json"]
        registry = runner.registry
        sources = [load_docred(workspace.parent / f"{key}.json", registry)
                   for key in ("train", "dev", "test")]
        source_labels = {doc.doc_id: doc.labels for doc in sources[0].documents}
        stripped = 0
        for seed in seeds:
            bundle = apply_split(*sources, load_split_spec(runner.path(f"split/spec_{seed}.json")),
                                 mixed_policy)
            assert bundle.train.documents and train_views[seed].documents == bundle.train.documents
            for key, view in (("dev", bundle.eval_dev), ("test", bundle.eval_test)):
                written = load_corpus(runner.path(f"split/{key}_{seed}.json"), registry)
                assert view.documents and written.documents == view.documents, (seed, key)
            stripped += sum(doc.labels != source_labels[doc.doc_id]
                            for doc in bundle.train.documents)
        assert (stripped > 0) == (mixed_policy == "strip")

    def test_a_bare_split_builds_no_training_view(self, workspace, monkeypatch):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, mixed_policy="strip")),
                             encoding="utf-8")
        policies = []

        def recording(doc, spec, mixed_policy):
            policies.append(mixed_policy)
            return view_document(doc, spec, mixed_policy)

        monkeypatch.setattr("docrte.pipeline.view_document", recording)
        runner = make_runner(workspace)
        assert outcome_map(runner.run(["split"])) == {"split": "ran"}
        assert policies and set(policies) == {None}  # the dev and test views only

    def test_a_file_named_twice_is_read_once(self, workspace, reads):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, test_docs="dev.json")),
                             encoding="utf-8")
        runner = make_runner(workspace)
        runner.run(["split"])
        assert reads == ["train.json", "dev.json"]
        for seed in PIPELINE_CONFIG["seeds"]:
            test = runner.path(f"split/test_{seed}.json").read_bytes()
            assert test == runner.path(f"split/dev_{seed}.json").read_bytes()

    def test_specs_are_sampled_before_any_source_is_read(self, workspace, reads):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, m=16)), encoding="utf-8")
        with pytest.raises(SplitError, match=r"m must be in \(0, 16\), got 16"):
            make_runner(workspace).run(["split"])
        assert reads == []

    def test_bad_row_in_the_last_source_writes_no_view(self, workspace):
        source = workspace.parent / "test.json"
        rows = json.loads(source.read_text(encoding="utf-8"))
        del rows[-1]["vertexSet"][0][0]["name"]
        source.write_text(json.dumps(rows), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 1, result.output
        assert f"test.json: document {len(rows) - 1} " in result.stderr
        run_dir = workspace.parent / "run"
        assert not list(run_dir.glob("split/*"))
        assert load_json(run_dir / "manifests" / "split.json")["status"] == "failed"

    @pytest.mark.parametrize("source, mixed_policy",
                             [("dev", "drop"), ("train", "drop"), ("train", "strip")])
    @pytest.mark.parametrize("fault", ["evidence out of range", "mention without name"])
    def test_bad_row_that_no_view_keeps_still_fails_split(self, workspace, source,
                                                           mixed_policy, fault):
        """Split builds no document for a row that no view keeps, but it still
        checks the row and reports it as it reports any other bad row."""
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, mixed_policy=mixed_policy)),
                             encoding="utf-8")
        registry = load_registry(workspace.parent / "registry.json")
        unseen = set().union(*(sample_unseen(registry, PIPELINE_CONFIG["m"], seed).unseen
                               for seed in PIPELINE_CONFIG["seeds"]))
        path = workspace.parent / f"{source}.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        index = next(i for i, row in enumerate(rows)
                     if row["labels"] and unseen.isdisjoint(lb["r"] for lb in row["labels"]))
        if fault == "evidence out of range":
            rows[index]["labels"][0]["evidence"] = [len(rows[index]["sents"])]
            expected = f"error: {rows[index]['title']}: evidence sentence "
        else:
            del rows[index]["vertexSet"][0][0]["name"]
            expected = f"error: {path}: document {index} "
        path.write_text(json.dumps(rows), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 1, result.output
        assert expected in result.stderr
        assert not list((workspace.parent / "run").glob("split/*"))

    def test_split_holds_no_source_corpus(self, workspace):
        """Dev and test documents with an unseen label are few, so split's
        traced peak is about one source file's bytes and text plus the train
        view; a split that held the parsed sources took 6.5 times that sum.
        The peak is traced in a new interpreter: in this one, a resize of the
        interned-string table that earlier tests made due would count."""
        registry = load_registry(workspace.parent / "registry.json")
        specs = [sample_unseen(registry, PIPELINE_CONFIG["m"], seed)
                 for seed in PIPELINE_CONFIG["seeds"]]

        def hit(doc, relations):
            return any(lb.relation in relations for lb in doc.labels)

        ids = registry.ids()
        for world_seed, name in enumerate(("dev", "test")):
            world = build_world(registry, ids, seed=world_seed, facts_per_relation=3,
                                related_pool=ids, n_related=2)
            docs = world_documents(world, 60, facts_per_doc=3, seed=world_seed,
                                   id_prefix=f"{name}-").documents
            unseen = set().union(*(spec.unseen for spec in specs))
            kept = {doc.doc_id: doc for doc in docs if not hit(doc, unseen)}
            for spec in specs:  # two documents with an unseen label per seed
                kept.update((d.doc_id, d) for d in [d for d in docs if hit(d, spec.unseen)][:2])
            save_docred(Corpus(list(kept.values()), "human", registry),
                        workspace.parent / f"{name}.json")
        source = max((workspace.parent / f"{name}.json").stat().st_size for name in ("dev", "test"))
        done = subprocess.run([sys.executable, "-c", TRACE_SPLIT, str(workspace)], check=True,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        peak = int(done.stdout)
        train = load_docred(workspace.parent / "train.json", registry)
        train_view = max(sum(len(chunk.encode()) for chunk in corpus_chunks(
            apply_split(train, train, train, spec).train)) for spec in specs)
        runner = make_runner(workspace)
        for seed in PIPELINE_CONFIG["seeds"]:
            for name in ("dev", "test"):
                assert 0 < len(load_corpus(runner.path(f"split/{name}_{seed}.json"))) <= 4
        assert source > 5 * train_view
        assert peak < 3 * (train_view + source)


TRACE_SPLIT = """
import gc, sys, tracemalloc
from docrte.config import load_config
from docrte.pipeline import PipelineRunner
runner = PipelineRunner(load_config(sys.argv[1]))
gc.collect()
tracemalloc.start()
runner.run(["split"])
print(tracemalloc.get_traced_memory()[1])
"""


class TestRunDigests:
    """A run hashes each file on disk at most once and takes the digest of
    every file it wrote from its writer."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        paths = []

        def counting(path):
            paths.append(Path(path))
            return file_digest(path)

        monkeypatch.setattr("docrte.pipeline.file_digest", counting)
        return paths

    def test_cold_run_reads_back_no_output(self, workspace, hashed):
        runner = make_runner(workspace)
        runner.run()
        assert hashed and len(hashed) == len(set(hashed))
        assert not [p for p in hashed if p.is_relative_to(runner.run_dir)]

    def test_single_stage_hashes_every_upstream_output_once(self, workspace, hashed):
        runner = make_runner(workspace)
        runner.run()
        hashed.clear()
        assert outcome_map(runner.run(["evaluate"])) == {"evaluate": "skipped"}
        # evaluate's own outputs and those of the stages it reads from, transitively
        outputs = {runner.path(rel)
                   for stage in ("split", "generate", "pseudo-label", "denoise", "evaluate")
                   for rel in runner.read_manifest(stage).outputs}
        assert sorted(p for p in hashed if p.is_relative_to(runner.run_dir)) == sorted(outputs)

    def test_noop_run_hashes_no_path_twice(self, workspace, hashed):
        runner = make_runner(workspace)
        runner.run()
        hashed.clear()
        # the same runner: no digest outlives the run that took it
        assert set(outcome_map(runner.run()).values()) == {"skipped"}
        assert len(hashed) == len(set(hashed))
        outputs = {runner.path(rel) for stage in STAGE_ORDER
                   for rel in runner.read_manifest(stage).outputs}
        assert outputs and outputs <= set(hashed)


def drop_first_document(path):
    """Rewrite a corpus file or a DocRED source as a valid one that differs from it."""
    if isinstance(load_json(path), list):
        path.write_text(json.dumps(load_json(path)[1:]), encoding="utf-8")
        return
    corpus = load_corpus(path)
    save_corpus(replace(corpus, documents=corpus.documents[1:]), path)


class TestMidRunEdit:
    """Another process rewrites a run file or a source after the stage that
    reads it has recorded its digest.  The stage either fails naming the file
    or used the bytes that digest describes, so the next run ends
    byte-identical to an undisturbed one."""

    @pytest.mark.parametrize("stage, rel, handed_over", [
        ("finetune-data", "../train.json", False),  # the train source
        ("finetune-data-denoised", "denoise/denoised_5.json", False),
        ("evaluate", "split/test_5.json", False),
        ("pseudo-label", "generate/synthetic_3.json", True),
        ("evaluate", "split/dev_3.json", True),
    ])
    def test_edit_between_hash_and_read(self, workspace, tmp_path, stage, rel, handed_over):
        class Editing(PipelineRunner):
            def _compute_inputs(self, name):
                inputs = super()._compute_inputs(name)
                if name == stage:
                    drop_first_document(self.path(rel))
                return inputs

        runner = Editing(load_config(workspace))
        if handed_over:  # a cold run: the stage takes the corpus split or generate wrote
            runner.run()
            recorded = runner.read_manifest(stage).inputs[rel]
            writer = next(s for s in STAGE_ORDER if rel in (runner.read_manifest(s).outputs))
            assert recorded == runner.read_manifest(writer).outputs[rel]
            assert recorded != file_digest(runner.path(rel))
        else:  # the stage alone: it parses the file from disk
            make_runner(workspace).run()
            with pytest.raises(StageError, match=rel):
                runner.run([stage], force=True)
            assert runner.read_manifest(stage).status == "failed"
        make_runner(workspace).run()
        reference = PipelineRunner(load_config(workspace, run_dir=str(tmp_path / "reference")))
        reference.run()
        assert run_tree_bytes(runner.run_dir) == run_tree_bytes(reference.run_dir)


class TestDeterminism:
    def test_two_fresh_runs_are_byte_identical(self, workspace, tmp_path):
        config_a = load_config(workspace, run_dir=str(tmp_path / "runs" / "a"))
        config_b = load_config(workspace, run_dir=str(tmp_path / "runs" / "b"))
        PipelineRunner(config_a).run()
        PipelineRunner(config_b).run()
        tree_a = run_tree_bytes(config_a.run_dir)
        tree_b = run_tree_bytes(config_b.run_dir)
        assert tree_a and tree_a == tree_b

    def test_replay_of_seeds_sharing_a_relation_equals_the_recording(self, workspace):
        # seeds 3 and 4 both hold out R007, so every chain of R007 asks the
        # same step-1 request in both seeds
        seeds = dict(PIPELINE_CONFIG, seeds=[3, 4])
        workspace.write_text(json.dumps(seeds), encoding="utf-8")

        def recording(runner, seed, spec):
            return CassetteBackend(workspace.parent / "a.json", mode="record",
                                   inner=runner.default_chat_backend(seed, spec))

        runner = make_runner(workspace, chat_backend_factory=recording)
        runner.run(["split", "generate"])
        recorded = run_tree_bytes(runner.run_dir / "generate")
        assert recorded["synthetic_3.json"] != recorded["synthetic_4.json"]
        replay = dict(seeds, backend="cassette", cassette_path="a.json")
        workspace.write_text(json.dumps(replay), encoding="utf-8")
        assert outcome_map(make_runner(workspace).run(["generate"])) == {"generate": "ran"}
        assert run_tree_bytes(runner.run_dir / "generate") == recorded


# Run files written compact (one line); every other JSON file keeps indent=2.
COMPACT_FILES = ("split/dev_", "split/test_", "generate/synthetic_",
                 "generate/records_", "pseudo/pseudo_", "denoise/denoised_", "denoise/kg_",
                 "eval/predictions_dev_", "eval/predictions_test_")


class TestArtifactLayout:
    def test_bulk_files_are_one_compact_line_and_small_files_indented(self, workspace):
        runner = make_runner(workspace)
        runner.run()
        compact, indented = [], []
        for path in sorted(runner.run_dir.rglob("*.json")):
            rel = path.relative_to(runner.run_dir).as_posix()
            text = path.read_text(encoding="utf-8")
            data = json.loads(text)
            if rel.startswith(COMPACT_FILES):
                assert text == canonical_dumps(data, compact=True), rel
                assert text.count("\n") == 1, rel
                compact.append(rel)
            else:
                assert text == canonical_dumps(data), rel
                indented.append(rel)
        assert len(compact) == 2 * len(COMPACT_FILES)
        assert {"report.json", "effective_config.json", "format.json", "split/spec_3.json",
                "denoise/report_3.json", "eval/dev_3.json",
                "manifests/denoise.json"} <= set(indented)


class TestFormatGate:
    def test_first_stage_writes_it_and_a_noop_rerun_writes_nothing(self, workspace):
        runner = make_runner(workspace)
        runner.run(["split"])
        assert load_json(runner.run_dir / "format.json") == {"version": FORMAT_VERSION}
        before = run_tree_bytes(runner.run_dir, exclude=())
        assert outcome_map(make_runner(workspace).run(["split"])) == {"split": "skipped"}
        assert run_tree_bytes(runner.run_dir, exclude=()) == before

    @pytest.mark.parametrize("leftover", [".lock", "manifests"])
    def test_a_directory_without_manifests_is_accepted(self, workspace, leftover):
        runner = make_runner(workspace)
        runner.run_dir.mkdir()
        if leftover == ".lock":
            (runner.run_dir / ".lock").touch()
        else:
            (runner.run_dir / "manifests").mkdir()
        assert outcome_map(runner.run(["split"])) == {"split": "ran"}
        assert load_json(runner.run_dir / "format.json") == {"version": FORMAT_VERSION}

    # version 1 held split/train_<seed>.json, which no stage writes or reads now
    @pytest.mark.parametrize("text", [None, '{"version": 1}', '{"version": 3}', '{"version"',
                                      "[2]", '{"version": "2"}', '{"version": true}',
                                      '{"version": 2.0}', "{}"],
                             ids=["missing", "version_1", "version_3", "not_json",
                                  "not_an_object", "string", "bool", "float", "no_version"])
    def test_another_format_is_refused_and_left_as_it_was(self, workspace, text):
        runner = make_runner(workspace)
        runner.run(["split"])
        path = runner.run_dir / "format.json"
        if text is None:  # as a run directory of an older docrte
            path.unlink()
        else:
            path.write_text(text, encoding="utf-8")
        before = run_tree_bytes(runner.run_dir, exclude=())
        message = (f"run directory {runner.run_dir} is not of run-directory format 2; "
                   "give another --run-dir, or delete the directory")
        for call in (make_runner(workspace).run, lambda: make_runner(workspace).run_stage("split")):
            with pytest.raises(StageError) as refused:
                call()
            assert str(refused.value) == message
        result = CliRunner().invoke(main, ["--config", str(workspace), "run-all"])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert run_tree_bytes(runner.run_dir, exclude=()) == before
        assert not (runner.run_dir / ".lock").exists()


class TestRecordsFile:
    def test_rebuilt_transcripts_equal_those_of_the_run(self, workspace, monkeypatch):
        written = []

        def keeping(*args, **kwargs):
            corpus, records = generate_corpus(*args, **kwargs)
            written.append(records)
            return corpus, records

        def failing_some(runner, seed, spec):
            inner = runner.default_chat_backend(seed, spec)

            class Failing(ChatBackend):
                def send(self, transcript, temperature, meta=None):
                    if meta.doc_index == 1 and meta.step == 4:
                        return "nothing to report"  # unusable at every attempt
                    return inner.send(transcript, temperature, meta)

            return Failing()

        monkeypatch.setattr("docrte.pipeline.generate_corpus", keeping)
        runner = make_runner(workspace, chat_backend_factory=failing_some)
        runner.run(["split", "generate"])
        seeds = PIPELINE_CONFIG["seeds"]
        assert len(written) == len(seeds)
        for seed, records in zip(seeds, written):
            path = runner.run_dir / f"generate/records_{seed}.json"
            rows = load_records(path)
            assert rows == [r.to_json() for r in records]
            assert [row["transcript"] for row in rows] == [r.transcript.messages() for r in records]
            failed = [row["doc_id"] for row in rows if row["failure"]]
            assert failed == [r.doc_id for r in records if not r.ok]
            assert {f"{rel}-01" for rel in {r.unseen_relation for r in records}} <= set(failed)
            data = load_json(path)
            assert len(set(data["texts"])) == len(data["texts"])
            assert {t["text_id"] for row in data["records"] for t in row["transcript"]} == \
                set(range(len(data["texts"])))

    def test_hash_seed_does_not_change_the_records(self, workspace):
        script = ("import sys; from docrte.config import load_config; "
                  "from docrte.pipeline import PipelineRunner; "
                  "PipelineRunner(load_config(sys.argv[1], run_dir=sys.argv[2]))"
                  ".run(['split', 'generate'])")
        files = []
        for hash_seed in ("1", "2"):
            run_dir = workspace.parent / f"run_hash{hash_seed}"
            subprocess.run([sys.executable, "-c", script, str(workspace), str(run_dir)],
                           check=True, env=child_env(PYTHONHASHSEED=hash_seed),
                           capture_output=True, timeout=120)
            files.append({seed: (run_dir / f"generate/records_{seed}.json").read_bytes()
                          for seed in PIPELINE_CONFIG["seeds"]})
        assert files[0] == files[1]


class TestCli:
    def test_single_stage_then_skip(self, workspace):
        cli = CliRunner()
        result = cli.invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 0, result.output
        assert "stage split: ran" in result.output
        result = cli.invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 0
        assert "stage split: skipped (up to date)" in result.output

    def test_missing_dependency_exits_2(self, workspace):
        result = CliRunner().invoke(main, ["--config", str(workspace), "denoise"])
        assert result.exit_code == 2
        assert "missing stage" in result.stderr
        assert "error:" in result.stderr

    def test_malformed_source_row_exits_1(self, workspace):
        source = workspace.parent / "train.json"
        rows = json.loads(source.read_text(encoding="utf-8"))
        del rows[0]["vertexSet"][0][0]["name"]
        source.write_text(json.dumps(rows), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 1, result.output
        assert "train.json: document 0 " in result.stderr
        assert "KeyError: 'name'" in result.stderr

    def test_m_out_of_range_exits_1(self, workspace):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, m=16)), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 1, result.output
        assert "m must be in (0, 16), got 16" in result.stderr
        assert not list((workspace.parent / "run").glob("split/*"))

    def test_missing_config_exits_1(self, tmp_path):
        result = CliRunner().invoke(
            main, ["--config", str(tmp_path / "absent.json"), "split"])
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_invalid_config_value_exits_1(self, workspace):
        data = dict(PIPELINE_CONFIG, m=0)
        workspace.write_text(json.dumps(data), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 1
        assert "m must be positive" in result.stderr

    def test_non_object_section_exits_1(self, workspace):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, live=5)), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "split"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr

    @pytest.mark.parametrize("section", [{"mock": {"final_drop_prob": 1.0}},
                                         {"live": {"timeout": "x"}},
                                         {"final_predictor": "file",
                                          "predictions_dev": "preds.json"}])
    def test_bad_section_value_exits_1_before_any_stage(self, workspace, section):
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, **section)), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "run-all"])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert not (workspace.parent / "run").exists()

    @pytest.mark.parametrize("content, fragment", [
        ({"d": 5}, "bad prediction row for 'd': 5"),
        ({"d": [{"head": "a"}]}, "bad prediction row for 'd'"),
        ([1], "predictions file must be a JSON object"),
        ({"d": [{"head": "a", "tail": "b", "relation": "R999"}]}, "unknown relation 'R999'"),
        ({"no-such-doc": []}, "predictions reference unknown document id(s): ['no-such-doc']"),
    ], ids=["rows-not-a-list", "row-without-keys", "not-an-object", "unknown-relation",
            "unknown-document"])
    def test_malformed_predictions_file_exits_1(self, workspace, content, fragment):
        preds = workspace.parent / "preds.json"
        preds.write_text(json.dumps(content), encoding="utf-8")
        workspace.write_text(json.dumps(dict(PIPELINE_CONFIG, final_predictor="file",
                                             predictions_dev=str(preds),
                                             predictions_test=str(preds))), encoding="utf-8")
        result = CliRunner().invoke(main, ["--config", str(workspace), "run-all"])
        assert result.exit_code == 1, result.output
        assert f"error: {preds}: {fragment}" in result.stderr
        assert load_json(workspace.parent / "run" / "manifests" / "evaluate.json")["status"] == "failed"

    def test_run_all_prints_report(self, workspace):
        result = CliRunner().invoke(main, ["--config", str(workspace), "run-all"])
        assert result.exit_code == 0, result.output
        for stage in STAGE_ORDER:
            assert f"stage {stage}: ran" in result.output
        assert "zero-shot document-level relation extraction" in result.output

    def test_finetune_data_denoised_flag(self, workspace):
        cli = CliRunner()
        assert cli.invoke(main, ["--config", str(workspace), "run-all"]).exit_code == 0
        result = cli.invoke(
            main, ["--config", str(workspace), "finetune-data", "--denoised"])
        assert result.exit_code == 0
        assert "stage finetune-data-denoised: skipped (up to date)" in result.output

    def test_seed_override_restricts_replicates(self, workspace, tmp_path):
        run_dir = tmp_path / "solo"
        result = CliRunner().invoke(main, [
            "--config", str(workspace), "--run-dir", str(run_dir),
            "--seed", "3", "split"])
        assert result.exit_code == 0, result.output
        assert (run_dir / "split" / "spec_3.json").is_file()
        assert not (run_dir / "split" / "spec_5.json").exists()
