"""Prompt templates: plain-text files with named ``{slot}`` placeholders.

Templates live in a directory (one file per prompt); the package ships a
default set under ``docrte/templates``.  Users point ``templates_dir`` at a
copy to tune wording without code changes.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path


class PromptError(ValueError):
    pass


class PromptLibrary:
    """Loads and renders named templates; unresolved slots are errors."""

    def __init__(self, directory: Path | str | None = None):
        if directory is None:
            self._dir = Path(str(resources.files("docrte").joinpath("templates")))
        else:
            self._dir = Path(directory)
        if not self._dir.is_dir():
            raise PromptError(f"template directory not found: {self._dir}")
        self._cache: dict[str, str] = {}

    def raw(self, name: str) -> str:
        if name not in self._cache:
            path = self._dir / f"{name}.txt"
            if not path.is_file():
                raise PromptError(f"missing prompt template: {path}")
            self._cache[name] = path.read_text(encoding="utf-8").strip("\n")
        return self._cache[name]

    def render(self, name: str, **slots: object) -> str:
        try:
            return self.raw(name).format(**slots)
        except KeyError as exc:
            raise PromptError(
                f"template {name!r} references slot {exc.args[0]!r} "
                f"which was not provided"
            ) from None
        except (IndexError, ValueError) as exc:
            raise PromptError(f"template {name!r} is malformed: {exc}") from exc
