"""Zero-shot split protocol: sampling, invariants, corpus views."""
from __future__ import annotations

import pytest

from docrte.split import (
    SplitError,
    SplitSpec,
    apply_split,
    load_split_spec,
    sample_unseen,
    save_split_spec,
)

from conftest import build_corpus, build_doc


def spec_invariants(spec: SplitSpec, registry) -> None:
    assert len(spec.unseen) == spec.m
    assert spec.unseen.isdisjoint(spec.seen)
    assert spec.unseen | spec.seen == set(registry.ids())


class TestSampling:
    @pytest.mark.parametrize("m", [1, 5, 10, 95])
    def test_invariants_hold(self, registry96, m):
        spec = sample_unseen(registry96, m, seed=42)
        spec_invariants(spec, registry96)

    def test_same_seed_same_split(self, registry96):
        a = sample_unseen(registry96, 10, seed=7)
        b = sample_unseen(registry96, 10, seed=7)
        assert a.unseen == b.unseen

    def test_different_seeds_vary(self, registry96):
        draws = {frozenset(sample_unseen(registry96, 10, seed=s).unseen) for s in range(6)}
        assert len(draws) > 1

    @pytest.mark.parametrize("m", [0, 96, 200])
    def test_m_bounds_enforced(self, registry96, m):
        with pytest.raises(SplitError):
            sample_unseen(registry96, m, seed=1)


class TestSpecPersistence:
    def test_manifest_round_trip(self, registry96, tmp_path):
        spec = sample_unseen(registry96, 10, seed=13)
        path = tmp_path / "spec.json"
        save_split_spec(spec, path)
        loaded = load_split_spec(path)
        assert loaded == spec

    def test_manifest_lists_are_sorted(self, registry96):
        spec = sample_unseen(registry96, 10, seed=13)
        manifest = spec.to_manifest()
        assert manifest["unseen"] == sorted(manifest["unseen"])
        assert manifest["seen"] == sorted(manifest["seen"])

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(SplitError):
            SplitSpec(seed=1, m=2, unseen=frozenset({"R1"}), seen=frozenset({"R2"}))
        with pytest.raises(SplitError):
            SplitSpec(seed=1, m=1, unseen=frozenset({"R1"}), seen=frozenset({"R1", "R2"}))


class TestCorpusViews:
    @pytest.fixture
    def corpora(self, registry6):
        train = build_corpus(
            [
                build_doc("t-pure", ["A", "B"], [("A", "B", "R1")]),
                build_doc("t-mixed", ["A", "B", "C"],
                          [("A", "B", "R1"), ("B", "C", "R4")]),
                build_doc("t-unseen", ["A", "B"], [("A", "B", "R4")]),
            ],
            provenance="human", registry=registry6,
        )
        dev = build_corpus(
            [
                build_doc("d-hit", ["A", "B", "C"],
                          [("A", "B", "R4"), ("B", "C", "R1")]),
                build_doc("d-miss", ["A", "B"], [("A", "B", "R1")]),
            ],
            provenance="human", registry=registry6,
        )
        test = build_corpus(
            [build_doc("x-hit", ["A", "B"], [("A", "B", "R5")])],
            provenance="human", registry=registry6,
        )
        return train, dev, test

    @pytest.fixture
    def spec(self):
        return SplitSpec(seed=1, m=2, unseen=frozenset({"R4", "R5"}),
                         seen=frozenset({"R1", "R2", "R3", "R6"}))

    def test_drop_policy_excludes_mixed_documents(self, corpora, spec):
        train, dev, test = corpora
        bundle = apply_split(train, dev, test, spec, mixed_policy="drop")
        assert [d.doc_id for d in bundle.train.documents] == ["t-pure"]
        for doc in bundle.train.documents:
            assert all(lb.relation in spec.seen for lb in doc.labels)

    def test_strip_policy_keeps_mixed_documents_without_unseen(self, corpora, spec):
        train, dev, test = corpora
        bundle = apply_split(train, dev, test, spec, mixed_policy="strip")
        ids = [d.doc_id for d in bundle.train.documents]
        assert ids == ["t-pure", "t-mixed"]
        mixed = bundle.train.documents[1]
        assert [lb.relation for lb in mixed.labels] == ["R1"]
        # the source corpus is untouched
        assert len(train.documents[1].labels) == 2

    def test_eval_views_restrict_gold_to_unseen(self, corpora, spec):
        train, dev, test = corpora
        bundle = apply_split(train, dev, test, spec)
        assert [d.doc_id for d in bundle.eval_dev.documents] == ["d-hit"]
        assert [lb.relation for lb in bundle.eval_dev.documents[0].labels] == ["R4"]
        assert [d.doc_id for d in bundle.eval_test.documents] == ["x-hit"]

    def test_unknown_policy_rejected(self, corpora, spec):
        train, dev, test = corpora
        with pytest.raises(SplitError):
            apply_split(train, dev, test, spec, mixed_policy="discard")
