"""Pin the bytes of every artifact of the demo pipeline across hash seeds.

``make_golden_digests.digests`` runs the demo ``run-all``, a cassette
recording and its replay.  Two new interpreters under different
``PYTHONHASHSEED`` values must agree with each other and with
``tests/golden_digests.json``.
"""
from __future__ import annotations

import json

from conftest import child_env
from make_golden_digests import GOLDEN, HASH_SEEDS, child_digests


def test_artifacts_match_the_golden_digests_under_two_hash_seeds():
    first, second = (child_digests(seed, child_env()) for seed in HASH_SEEDS)
    assert first == second
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert first["run-all"] and first["replay"]
    # the replay writes what the recording wrote
    assert first["replay"] == first["record"]
    for name in golden.keys() | first.keys():
        assert first.get(name) == golden.get(name), name
