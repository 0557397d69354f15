"""Write ``tests/golden_digests.json``: the sha256 of every artifact of the demo pipeline.

The digests cover three runs over the demo inputs (``write_demo_inputs`` with
its defaults), each in a run directory of its own:

- ``run-all``: every stage with the mock backends;
- ``record``: split and generate, with the mock chat backend recorded to a
  cassette, whose digest is listed under ``cassette``;
- ``replay``: split and generate again, replaying that cassette.

Every run uses ``parallelism`` 1.  Manifests, ``effective_config.json`` and
``.lock`` hold timestamps or absolute paths and are left out.

``tests/test_golden_digests.py`` computes the digests in two interpreters
under different ``PYTHONHASHSEED`` values and compares both with the file.
Regenerate the file only for a change that alters an artifact's bytes on
purpose, and name each changed artifact with the change::

    PYTHONPATH=src python tests/make_golden_digests.py

With ``--work DIR`` the script only prints the digests of a run in ``DIR``
as JSON.  It is not collected by the test run (its file name does not match
``test_*.py``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_digests.json")
EXCLUDED = ("manifests", "effective_config.json", ".lock")
HASH_SEEDS = ("1", "2")


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 by relative path of every file under ``root`` but the excluded ones."""
    digests = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and rel.parts[0] not in EXCLUDED:
            digests[rel.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def digests(work: Path) -> dict[str, dict[str, str]]:
    """Run the demo pipeline three ways under ``work``; the digests of each run."""
    from docrte.backends import CassetteBackend
    from docrte.config import config_from_dict, strip_json_comments
    from docrte.pipeline import PipelineRunner
    from docrte.simulate import write_demo_inputs

    write_demo_inputs(work)
    data = json.loads(strip_json_comments((work / "config.json").read_text(encoding="utf-8")))
    cassette = work / "cassette.jsonl"

    def config(name, **changes):
        return config_from_dict(dict(data, run_dir=name, parallelism=1, **changes), base_dir=work)

    def recording(runner, seed, spec):
        return CassetteBackend(cassette, mode="record", inner=runner.default_chat_backend(seed, spec))

    PipelineRunner(config("run-all")).run()
    PipelineRunner(config("record"), chat_backend_factory=recording).run(["split", "generate"])
    PipelineRunner(config("replay", backend="cassette", cassette_mode="replay",
                          cassette_path=cassette.name)).run(["split", "generate"])
    out = {name: tree_digests(work / name) for name in ("run-all", "record", "replay")}
    out["cassette"] = {cassette.name: hashlib.sha256(cassette.read_bytes()).hexdigest()}
    return out


def child_digests(hash_seed: str, env: dict[str, str] | None = None) -> dict[str, dict[str, str]]:
    """:func:`digests` computed by a new interpreter under ``PYTHONHASHSEED`` ``hash_seed``."""
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, __file__, "--work", work],
            env=dict(env if env is not None else os.environ, PYTHONHASHSEED=hash_seed),
            check=True, capture_output=True, text=True, timeout=300)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, help="print the digests of a run in this directory")
    args = parser.parse_args()
    if args.work is not None:
        print(json.dumps(digests(args.work), sort_keys=True))
        return
    found = [child_digests(seed) for seed in HASH_SEEDS]
    if found[0] != found[1]:
        sys.exit(f"the artifacts differ between PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
    GOLDEN.write_text(json.dumps(found[0], indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({sum(map(len, found[0].values()))} digests)")


if __name__ == "__main__":
    main()
