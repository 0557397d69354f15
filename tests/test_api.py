"""The package surface: submodules import as modules, and the top level
exports only the command line's and the factory hooks' API."""
from __future__ import annotations

import importlib
import pkgutil
from types import ModuleType

import docrte

PUBLIC_API = [
    "BackendError",
    "ChatBackend",
    "ChatTranscript",
    "ConfigError",
    "MissingStageError",
    "PipelineConfig",
    "PipelineRunner",
    "PredictorBackend",
    "PredictorError",
    "RequestMeta",
    "STAGE_ORDER",
    "StageError",
    "load_config",
]


def test_every_submodule_imports_as_a_module():
    names = [info.name for info in pkgutil.iter_modules(docrte.__path__)]
    assert "denoise" in names
    for name in names:
        module = importlib.import_module(f"docrte.{name}")
        assert isinstance(module, ModuleType), name
        assert isinstance(getattr(docrte, name), ModuleType), name


def test_top_level_exports_exactly_the_public_api():
    assert sorted(docrte.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(docrte, name) is not None, name
