"""Configuration loading: comment stripping, validation, CLI overrides."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from docrte.config import (
    ConfigError,
    PipelineConfig,
    config_from_dict,
    load_config,
    strip_json_comments,
)


def minimal(**overrides):
    data = {
        "registry": "registry.json",
        "train_docs": "train.json",
        "dev_docs": "dev.json",
        "test_docs": "test.json",
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestCommentStripping:
    def test_line_comments_removed(self):
        text = '{\n  "a": 1, // replicate count\n  "b": 2\n}'
        assert json.loads(strip_json_comments(text)) == {"a": 1, "b": 2}

    def test_block_comments_removed(self):
        text = '{ /* header\n   spanning lines */ "a": 1 }'
        assert json.loads(strip_json_comments(text)) == {"a": 1}

    def test_comment_markers_inside_strings_survive(self):
        text = '{"url": "http://host/x", "note": "a /* b */ c"}'
        assert json.loads(strip_json_comments(text)) == {
            "url": "http://host/x", "note": "a /* b */ c"}

    def test_escaped_quote_does_not_end_string(self):
        text = '{"a": "he said \\"hi\\" // not a comment"}'
        assert json.loads(strip_json_comments(text)) == {
            "a": 'he said "hi" // not a comment'}

    def test_unterminated_block_comment_rejected(self):
        with pytest.raises(ConfigError, match="unterminated"):
            strip_json_comments('{"a": 1} /* trailing')


class TestValidation:
    def test_minimal_config_gets_defaults(self):
        config = config_from_dict(minimal(), base_dir=Path("/tmp"))
        assert config.m == 5
        assert config.seeds == (13, 42, 77)
        assert config.mixed_policy == "drop"
        assert config.backend == "mock"
        assert config.prompt_mode == "chain_of_retrieval"

    def test_missing_required_paths(self):
        with pytest.raises(ConfigError, match="missing required path"):
            config_from_dict({"registry": "r.json"}, base_dir=Path("/tmp"))

    def test_unknown_key_suggests_spelling(self):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict(minimal(seedz=[1]), base_dir=Path("/tmp"))

    def test_unknown_nested_key_names_section(self):
        with pytest.raises(ConfigError, match="mock"):
            config_from_dict(
                minimal(mock={"facts_per_rel": 4}), base_dir=Path("/tmp"))

    @pytest.mark.parametrize("patch,fragment", [
        ({"m": 0}, "m must be positive"),
        ({"seeds": []}, "at least one"),
        ({"seeds": [7, 7]}, "distinct"),
        ({"mixed_policy": "both"}, "mixed_policy"),
        ({"prompt_mode": "freeform"}, "prompt_mode"),
        ({"backend": "gpu"}, "backend"),
        ({"backend": "live"}, "live.base_url"),
        ({"cassette_mode": "append"}, "cassette_mode"),
        ({"predictor": "process"}, "predictor_argv"),
        ({"predictor": "http"}, "predictor_url"),
        ({"final_predictor": "file"}, "predictions_dev"),
        ({"keep_empty_prob": 1.5}, "keep_empty_prob"),
        ({"temperature_step2": -0.1}, r"\[0, 2\]"),
        ({"max_retries": -1}, "max_retries"),
        ({"group_size": 0}, "positive"),
        ({"live": 5}, "live must be a JSON object"),
        ({"mock": ["x"]}, "mock must be a JSON object"),
        ({"entity_types": 5}, "bad config value"),
        ({"temperature_other": "hot"}, "bad config value"),
        ({"final_predictor": "file", "predictions_dev": "d.json"}, "predictions_test"),
    ])
    def test_invalid_values_rejected(self, patch, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(minimal(**patch), base_dir=Path("/tmp"))

    @pytest.mark.parametrize("patch", [{"m": "5"}, {"seeds": 5}, {"group_size": None}])
    def test_wrong_type_rejected(self, patch):
        with pytest.raises(ConfigError, match="bad config value"):
            config_from_dict(minimal(**patch), base_dir=Path("/tmp"))

    @pytest.mark.parametrize("patch,fragment", [
        ({"mock": {"final_drop_prob": 1.0}}, r"bad mock value: final_drop_prob must lie in \[0, 1\)"),
        ({"mock": {"label_drop_prob": -0.5}}, r"bad mock value: label_drop_prob"),
        ({"mock": {"spurious_prob": 2}}, r"bad mock value: spurious_prob"),
        ({"mock": {"facts_per_doc": "x"}}, "bad mock value: facts_per_doc must be of type int"),
        ({"mock": {"facts_per_relation": 0}}, "bad mock value: facts_per_relation"),
        ({"mock": {"world_seed": 1.5}}, "bad mock value: world_seed"),
        ({"live": {"timeout": "x"}}, "bad live value: timeout must be of type float"),
        ({"live": {"timeout": 0}}, "bad live value: timeout must be positive"),
        ({"live": {"burst": True}}, "bad live value: burst must be of type int"),
        ({"live": {"max_attempts": 0}}, "bad live value: max_attempts"),
        ({"live": {"model": 5}}, "bad live value: model must be of type str"),
        ({"strict_seen": 1}, "bad config value: strict_seen must be of type bool"),
        ({"m": 2.0}, "bad config value: m must be of type int"),
    ])
    def test_bad_section_and_scalar_values_rejected_at_load(self, patch, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(minimal(**patch), base_dir=Path("/tmp"))

    def test_int_accepted_where_a_float_is_expected(self):
        config = config_from_dict(minimal(live={"timeout": 30}, mock={"label_drop_prob": 0}),
                                  base_dir=Path("/tmp"))
        assert config.live.timeout == 30
        assert config.mock.label_drop_prob == 0

    def test_live_backend_requires_endpoint(self):
        config = config_from_dict(
            minimal(backend="live",
                    live={"base_url": "https://llm.internal/v1", "model": "m-1"}),
            base_dir=Path("/tmp"))
        assert config.live.base_url == "https://llm.internal/v1"
        assert config.live.api_key_env == "CHAT_API_KEY"

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict(["not", "a", "dict"], base_dir=Path("/tmp"))  # type: ignore[arg-type]


class TestPathResolution:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        path = write_config(sub, minimal(run_dir="out"))
        config = load_config(path)
        assert Path(config.registry) == sub / "registry.json"
        assert Path(config.run_dir) == sub / "out"

    def test_absolute_paths_kept(self, tmp_path):
        data = minimal(registry=str(tmp_path / "elsewhere" / "reg.json"))
        path = write_config(tmp_path, data)
        config = load_config(path)
        assert Path(config.registry) == tmp_path / "elsewhere" / "reg.json"

    def test_templated_prediction_paths_keep_placeholder(self, tmp_path):
        data = minimal(final_predictor="file",
                       predictions_dev="preds/dev_{seed}.json",
                       predictions_test="preds/test_{seed}.json")
        path = write_config(tmp_path, data)
        config = load_config(path)
        assert config.predictions_dev == str(tmp_path / "preds/dev_{seed}.json")
        assert "{seed}" in config.predictions_dev


class TestLoadConfig:
    def test_malformed_json_reports_offset(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"registry": }', encoding="utf-8")
        with pytest.raises(ConfigError, match="offset"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_comments_allowed_in_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            '{\n'
            '  // where the relation inventory lives\n'
            '  "registry": "registry.json",\n'
            '  "train_docs": "train.json",\n'
            '  "dev_docs": "dev.json",\n'
            '  "test_docs": "test.json",\n'
            '  "m": 3 /* small demo */\n'
            '}\n',
            encoding="utf-8")
        assert load_config(path).m == 3

    def test_seed_override_collapses_replicates(self, tmp_path):
        path = write_config(tmp_path, minimal(seeds=[1, 2, 3]))
        config = load_config(path, seed=99)
        assert config.seeds == (99,)

    def test_run_dir_override_resolves_against_cwd(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, minimal())
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        config = load_config(path, run_dir="runs/exp1")
        assert Path(config.run_dir) == elsewhere / "runs" / "exp1"

    def test_backend_override(self, tmp_path):
        path = write_config(
            tmp_path,
            minimal(backend="live",
                    live={"base_url": "https://llm.internal/v1", "model": "m-1"}))
        config = load_config(path, backend="mock")
        assert config.backend == "mock"

    def test_bad_backend_override_still_validated(self, tmp_path):
        path = write_config(tmp_path, minimal())
        with pytest.raises(ConfigError, match="backend"):
            load_config(path, backend="quantum")


class TestSerialization:
    def test_to_json_round_trips_through_validation(self, tmp_path):
        path = write_config(tmp_path, minimal(m=2, seeds=[5, 6], group_size=4))
        config = load_config(path)
        blob = config.to_json()
        again = config_from_dict(blob, base_dir=tmp_path)
        assert again == config

    def test_to_json_is_plain_data(self, tmp_path):
        path = write_config(tmp_path, minimal())
        blob = load_config(path).to_json()
        json.dumps(blob)  # must not raise
        assert blob["seeds"] == [13, 42, 77]
        assert isinstance(blob["mock"], dict)
