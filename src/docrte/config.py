"""Pipeline configuration: JSON with comments, validated with suggestions.

The config file is ordinary JSON plus ``//`` line comments and ``/* */``
block comments (stripped with string-awareness before parsing).  Unknown
keys are rejected with a did-you-mean hint so typos cannot silently fall
back to defaults.  Relative paths are resolved against the config file's
directory.  Secrets never appear here: the live backend section names the
environment variable that holds the API key.
"""
from __future__ import annotations

import difflib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from .generate import ChainConfig
from .model import ENTITY_TYPES
from .pseudo import FinetunePolicy
from .simulate import MockWorldParams
from .split import MIXED_POLICIES


class ConfigError(ValueError):
    pass


DEFAULT_INSTRUCTION = (
    "Extract every relation triplet expressed in the document. Answer with "
    "one line per triplet in the form (head | tail | relation), using only "
    "the listed relation names. Answer with nothing if no listed relation "
    "applies."
)

CHAT_BACKENDS = ("live", "cassette", "mock")
PREDICTORS = ("mock", "process", "http", "none")
FINAL_PREDICTORS = ("mock", "process", "http", "file", "none")


def strip_json_comments(text: str) -> str:
    """Remove // and /* */ comments outside of string literals."""
    out: list[str] = []
    i, n = 0, len(text)
    in_string = False
    while i < n:
        ch = text[i]
        if in_string:
            out.append(ch)
            if ch == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            i += 1
        elif ch == '"':
            in_string = True
            out.append(ch)
            i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            end = text.find("*/", i + 2)
            if end == -1:
                raise ConfigError("unterminated /* comment in config")
            i = end + 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


@dataclass
class LiveConfig:
    base_url: str = ""
    model: str = ""
    api_key_env: str = "CHAT_API_KEY"
    timeout: float = 60.0
    max_attempts: int = 5
    rate_per_sec: float = 0.0  # 0 disables rate limiting
    burst: int = 1

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.rate_per_sec < 0:
            raise ValueError("timeout must be positive and rate_per_sec non-negative")
        if self.max_attempts < 1 or self.burst < 1:
            raise ValueError("max_attempts and burst must be at least 1")


@dataclass
class PipelineConfig:
    registry: str = ""
    train_docs: str = ""
    dev_docs: str = ""
    test_docs: str = ""
    run_dir: str = "run"
    templates_dir: str | None = None

    m: int = 5
    seeds: tuple[int, ...] = (13, 42, 77)
    mixed_policy: str = "drop"

    n_related: int = 3
    docs_per_relation: int = 10
    temperature_step2: float = 1.0
    temperature_other: float = 0.0
    max_retries: int = 2
    prompt_mode: str = "chain_of_retrieval"
    entity_types: tuple[str, ...] = ENTITY_TYPES
    parallelism: int = 1

    group_size: int = 10
    keep_empty_prob: float = 1.0
    instruction: str = DEFAULT_INSTRUCTION

    backend: str = "mock"
    live: LiveConfig = field(default_factory=LiveConfig)
    cassette_path: str = "cassette.json"
    cassette_mode: str = "replay"

    predictor: str = "mock"
    predictor_argv: tuple[str, ...] = ()
    predictor_url: str = ""
    final_predictor: str = "mock"
    final_predictor_argv: tuple[str, ...] = ()
    final_predictor_url: str = ""
    predictions_dev: str = ""
    predictions_test: str = ""
    strict_seen: bool = False

    mock: MockWorldParams = field(default_factory=MockWorldParams)

    def chain(self) -> ChainConfig:
        """The generation settings, checked by :class:`ChainConfig`."""
        return ChainConfig(**{f.name: getattr(self, f.name) for f in fields(ChainConfig)})

    def validate(self) -> None:
        missing = [
            name
            for name in ("registry", "train_docs", "dev_docs", "test_docs")
            if not getattr(self, name)
        ]
        if missing:
            raise ConfigError(f"config is missing required path(s): {missing}")
        if self.m < 1:
            raise ConfigError(f"m must be positive, got {self.m}")
        if not self.seeds:
            raise ConfigError("seeds must list at least one replicate seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"replicate seeds must be distinct: {list(self.seeds)}")
        if self.mixed_policy not in MIXED_POLICIES:
            raise ConfigError(f"mixed_policy must be one of {MIXED_POLICIES}")
        if self.backend not in CHAT_BACKENDS:
            raise ConfigError(f"backend must be one of {CHAT_BACKENDS}")
        if self.backend == "live" and not (self.live.base_url and self.live.model):
            raise ConfigError("live backend requires live.base_url and live.model")
        if self.cassette_mode not in ("replay", "record"):
            raise ConfigError("cassette_mode must be 'replay' or 'record'")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"predictor must be one of {PREDICTORS}")
        if self.final_predictor not in FINAL_PREDICTORS:
            raise ConfigError(f"final_predictor must be one of {FINAL_PREDICTORS}")
        for role in ("predictor", "final_predictor"):
            kind = getattr(self, role)
            if kind == "process" and not getattr(self, f"{role}_argv"):
                raise ConfigError(f"{role}=process requires {role}_argv")
            if kind == "http" and not getattr(self, f"{role}_url"):
                raise ConfigError(f"{role}=http requires {role}_url")
        if self.final_predictor == "file" and not (self.predictions_dev and self.predictions_test):
            raise ConfigError("final_predictor=file requires predictions_dev and predictions_test")
        for name in ("group_size", "parallelism"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        try:
            self.chain()
            FinetunePolicy(self.instruction, self.keep_empty_prob)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    def to_json(self) -> dict[str, Any]:
        return asdict(self, dict_factory=lambda items: {
            name: list(value) if isinstance(value, tuple) else value for name, value in items})


# the config keys whose value is a section, and the section's class
_SECTIONS = {"live": LiveConfig, "mock": MockWorldParams}
# JSON types accepted for a field annotated with a scalar type
_SCALARS = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _from_dict(cls, data: Any, context: str):
    """Build ``cls`` from a JSON object, naming unknown keys with a hint and
    rejecting a value whose JSON type does not fit a scalar field."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigError(_unknown_keys_message(unknown, set(kinds), context))
    kwargs = {}
    for name, value in data.items():
        kind = kinds[name]
        if kind in _SCALARS and (not isinstance(value, _SCALARS[kind])
                                 or isinstance(value, bool) != (kind == "bool")):
            raise ConfigError(f"bad {context} value: {name} must be of type {kind}, "
                              f"got {value!r}")
        if name in _SECTIONS:
            value = _from_dict(_SECTIONS[name], value, name)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {context} value: {exc}") from exc


def _unknown_keys_message(unknown: list[str], allowed: set[str], context: str) -> str:
    parts = []
    for key in unknown:
        hint = difflib.get_close_matches(key, sorted(allowed), n=1)
        parts.append(f"{key!r}" + (f" (did you mean {hint[0]!r}?)" if hint else ""))
    return f"unknown {context} key(s): " + ", ".join(parts)


_PATH_FIELDS = (
    "registry", "train_docs", "dev_docs", "test_docs", "run_dir",
    "templates_dir", "cassette_path", "predictions_dev", "predictions_test",
)


def config_from_dict(data: dict[str, Any], base_dir: Path | None = None) -> PipelineConfig:
    config = _from_dict(PipelineConfig, data, "config")
    if base_dir is not None:
        for name in _PATH_FIELDS:
            value = getattr(config, name)
            if value and "{seed}" not in str(value):
                resolved = (base_dir / value).resolve() if not Path(value).is_absolute() else Path(value)
                setattr(config, name, str(resolved))
            elif value:
                # templated paths resolve their directory part lazily per seed
                if not Path(value).is_absolute():
                    setattr(config, name, str(base_dir / value))
    try:
        config.validate()
    except TypeError as exc:  # a value of the wrong JSON type met a check
        raise ConfigError(f"bad config value: {exc}") from exc
    return config


def load_config(
    path: Path | str,
    run_dir: str | None = None,
    seed: int | None = None,
    backend: str | None = None,
) -> PipelineConfig:
    """Read, strip comments, validate, and apply CLI overrides.

    ``seed`` collapses the replicate list to a single replicate; ``run_dir``
    and ``backend`` replace their config values.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(strip_json_comments(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at offset {exc.pos}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if run_dir is not None:
        data["run_dir"] = str(Path(run_dir).resolve())
    if seed is not None:
        data["seeds"] = [seed]
    if backend is not None:
        data["backend"] = backend
    return config_from_dict(data, base_dir=path.resolve().parent)
