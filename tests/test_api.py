"""The package surface: submodules import as modules, and the top level
exports only the command line's and the factory hooks' API."""
from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import docrte

from conftest import child_env

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


def test_bench_tracer_binds_every_name_it_wraps():
    """``bench/tracing.install`` looks docrte's functions and methods up by
    name; one renamed or deleted breaks every traced benchmark run."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=bench, env=child_env(PYTHONDONTWRITEBYTECODE="1"), capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 0, result.stderr
