"""Pseudo-labeling: relation grouping, triplet grammar, predictors, inference."""
from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrte.model import FactKey, ValidationError
from docrte.pseudo import (
    FinetunePolicy,
    FinetuneSample,
    HttpPredictor,
    OraclePredictor,
    PredictorError,
    ProcessPredictor,
    PseudoLabelError,
    PseudoLabelSet,
    RelationGroup,
    TripletBlockError,
    assemble_finetune_dataset,
    format_triplet_block,
    infer_pseudo_labels,
    parse_triplet_block,
    partition_relations,
    render_document_text,
    write_finetune_file,
)

from conftest import build_corpus, build_doc, make_registry


class TestPartition:
    def test_groups_cover_and_are_disjoint(self):
        ids = [f"P{i}" for i in range(23)]
        groups = partition_relations(ids, group_size=10, seed=3)
        assert [g.index for g in groups] == [0, 1, 2]
        assert [len(g.relations) for g in groups] == [10, 10, 3]
        flattened = [r for g in groups for r in g.relations]
        assert sorted(flattened) == sorted(ids)

    def test_deterministic_per_seed(self):
        ids = [f"P{i}" for i in range(30)]
        assert partition_relations(ids, 7, seed=1) == partition_relations(ids, 7, seed=1)
        assert partition_relations(ids, 7, seed=1) != partition_relations(ids, 7, seed=2)

    def test_degenerate_sizes(self):
        assert len(partition_relations(["a", "b"], 1, seed=0)) == 2
        assert len(partition_relations(["a", "b"], 99, seed=0)) == 1
        with pytest.raises(ValueError):
            partition_relations([], 5, seed=0)
        with pytest.raises(ValueError):
            partition_relations(["a"], 0, seed=0)

    @given(st.integers(1, 40), st.integers(0, 1000))
    @settings(max_examples=25)
    def test_cover_property(self, group_size, seed):
        ids = [f"P{i}" for i in range(37)]
        groups = partition_relations(ids, group_size, seed)
        flattened = sorted(r for g in groups for r in g.relations)
        assert flattened == sorted(ids)


class TestTripletGrammar:
    @pytest.fixture
    def registry(self):
        return make_registry(("P1", "employer"), ("P2", "founded by"))

    def test_format_renders_relation_names(self, registry):
        block = format_triplet_block([("Ada", "Acme Corp", "P1")], registry)
        assert block == "(Ada | Acme Corp | employer)"

    def test_empty_list_formats_to_empty_string(self, registry):
        assert format_triplet_block([], registry) == ""

    def test_parse_inverts_format(self, registry):
        triplets = [("Ada", "Acme Corp", "P1"), ("Acme Corp", "Grace", "P2")]
        block = format_triplet_block(triplets, registry)
        assert parse_triplet_block(block, registry) == triplets

    def test_parse_accepts_relation_ids_too(self, registry):
        assert parse_triplet_block("(a | b | P2)", registry) == [("a", "b", "P2")]

    def test_blank_text_means_no_triplets(self, registry):
        assert parse_triplet_block("", registry) == []
        assert parse_triplet_block("  \n ", registry) == []

    def test_malformed_lines_are_skipped(self, registry):
        block = "(Ada | Acme | employer)\nnot a triplet\n(missing | fields)"
        assert parse_triplet_block(block, registry) == [("Ada", "Acme", "P1")]

    def test_unknown_relation_skipped(self, registry):
        block = "(a | b | director)\n(a | b | employer)"
        assert parse_triplet_block(block, registry) == [("a", "b", "P1")]

    def test_nothing_parseable_raises(self, registry):
        with pytest.raises(TripletBlockError):
            parse_triplet_block("total gibberish", registry)

    def test_pipe_in_name_cannot_be_formatted(self, registry):
        with pytest.raises(ValidationError):
            format_triplet_block([("a|b", "c", "P1")], registry)

    @given(st.lists(
        st.tuples(
            st.text(alphabet="abcdef ghij", min_size=1).filter(lambda s: s.split()),
            st.text(alphabet="klmno pqrst", min_size=1).filter(lambda s: s.split()),
            st.sampled_from(["P1", "P2"]),
        ),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=50)
    def test_round_trip_property(self, rows):
        registry = make_registry(("P1", "employer"), ("P2", "founded by"))
        cleaned = [(" ".join(h.split()), " ".join(t.split()), r) for h, t, r in rows]
        block = format_triplet_block(cleaned, registry)
        assert parse_triplet_block(block, registry) == cleaned


class TestFinetuneAssembly:
    @pytest.fixture
    def registry(self):
        return make_registry(("P1", "employer"), ("P2", "founded by"), ("P3", "spouse"))

    def test_samples_per_document_and_group(self, registry):
        doc = build_doc("d1", ["Ada", "Acme"], [("Ada", "Acme", "P1")])
        corpus = build_corpus([doc], registry=registry)
        groups = [RelationGroup(0, ("P1", "P2")), RelationGroup(1, ("P3",))]
        policy = FinetunePolicy(instruction="Extract.", keep_empty_prob=1.0, seed=0)
        samples = assemble_finetune_dataset(corpus, groups, policy, registry)
        assert len(samples) == 2
        hit, abstain = samples
        assert "(Ada | Acme | employer)" == hit.target
        assert hit.relation_menu == "employer, founded by"
        assert abstain.target == ""
        assert abstain.relation_menu == "spouse"

    def test_sample_json_shape(self, registry):
        doc = build_doc("d1", ["Ada", "Acme"], [("Ada", "Acme", "P1")])
        corpus = build_corpus([doc], registry=registry)
        policy = FinetunePolicy(instruction="Extract.", seed=0)
        sample = assemble_finetune_dataset(
            corpus, [RelationGroup(0, ("P1",))], policy, registry)[0]
        row = sample.to_json()
        assert set(row) == {"instruction", "input", "output"}
        assert row["input"].startswith(render_document_text(doc))
        assert row["input"].endswith("\nRelations: employer")

    def test_keep_empty_prob_zero_drops_abstentions(self, registry):
        doc = build_doc("d1", ["Ada", "Acme"], [("Ada", "Acme", "P1")])
        corpus = build_corpus([doc], registry=registry)
        groups = [RelationGroup(0, ("P2",)), RelationGroup(1, ("P3",))]
        policy = FinetunePolicy(instruction="x", keep_empty_prob=0.0, seed=0)
        assert assemble_finetune_dataset(corpus, groups, policy, registry) == []

    def test_written_file_is_jsonl(self, registry, tmp_path):
        doc = build_doc("d1", ["Ada", "Acme"], [("Ada", "Acme", "P1")])
        corpus = build_corpus([doc], registry=registry)
        policy = FinetunePolicy(instruction="x", seed=0)
        samples = assemble_finetune_dataset(
            corpus, [RelationGroup(0, ("P1",))], policy, registry)
        path = tmp_path / "ft.jsonl"
        write_finetune_file(samples, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [s.to_json() for s in samples]

    TRICKY_INSTRUCTION = 'Say "hi" \\ then\nstop:\ttab'
    TRICKY_TEXT = 'Café «Zoë» \\ "quoted"\nline\u2028two\x01end \U0001F600'

    @pytest.mark.parametrize("samples", [
        [],
        [FinetuneSample(TRICKY_INSTRUCTION, TRICKY_TEXT, "employer, founded by",
                        "(Ada | Acme | employer)\n(Zoë | \"Q\" | spouse)"),
         FinetuneSample(TRICKY_INSTRUCTION, TRICKY_TEXT, "spouse", ""),
         FinetuneSample("", "", "", "")],
    ], ids=["empty", "escapes"])
    def test_written_bytes_equal_per_sample_dumps(self, samples, tmp_path):
        path = tmp_path / "ft.jsonl"
        write_finetune_file(samples, path)
        assert path.read_bytes() == per_sample_dumps(samples)

    @given(st.lists(st.tuples(st.text(), st.text(), st.text(), st.text()), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_written_bytes_equal_per_sample_dumps_property(self, rows):
        samples = [FinetuneSample(*row) for row in rows]
        samples += samples  # repeated strings take the memoised path
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ft.jsonl"
            write_finetune_file(samples, path)
            assert path.read_bytes() == per_sample_dumps(samples)


def per_sample_dumps(samples) -> bytes:
    """The reference layout: one ``json.dumps`` per sample."""
    return "".join(json.dumps(s.to_json(), ensure_ascii=False, sort_keys=True) + "\n"
                   for s in samples).encode("utf-8")


ECHO_SERVER = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    doc = req["document"]
    rels = req["relations"]
    sys.stdout.write(f"(Ada | Acme | {rels[0]})\n")
    if "second" in doc:
        sys.stdout.write(f"(Acme | Grace | {rels[-1]})\n")
    sys.stdout.write("\n")
    sys.stdout.flush()
"""


class TestProcessPredictor:
    def test_line_protocol_round_trip(self):
        predictor = ProcessPredictor([sys.executable, "-c", ECHO_SERVER])
        try:
            one = predictor.predict("inst", "first doc", ["employer", "spouse"])
            assert one == "(Ada | Acme | employer)"
            two = predictor.predict("inst", "second doc", ["employer", "spouse"])
            assert two.splitlines() == [
                "(Ada | Acme | employer)", "(Acme | Grace | spouse)"]
        finally:
            predictor.close()

    def test_dead_process_raises(self):
        predictor = ProcessPredictor([sys.executable, "-c", "pass"])
        try:
            with pytest.raises(PredictorError):
                predictor.predict("inst", "doc", ["employer"])
        finally:
            predictor.close()

    def test_unlaunchable_command_raises(self):
        predictor = ProcessPredictor(["/nonexistent/predictor-binary"])
        with pytest.raises(PredictorError):
            predictor.predict("inst", "doc", ["employer"])

    def test_close_reaps_child_and_closes_pipes(self):
        predictor = ProcessPredictor([sys.executable, "-c", ECHO_SERVER])
        predictor.predict("inst", "first doc", ["employer"])
        proc = predictor._proc
        predictor.close()
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed


@dataclass
class FakeResponse:
    status_code: int
    text: str = ""


@dataclass
class FakeSession:
    responses: list[FakeResponse]
    posts: list[dict] = field(default_factory=list)
    closes: int = 0

    def post(self, url, json=None, timeout=None):
        self.posts.append({"url": url, "json": json})
        return self.responses.pop(0)

    def close(self):
        self.closes += 1


class TestHttpPredictor:
    def test_success_returns_body(self):
        session = FakeSession([FakeResponse(200, "(a | b | employer)")])
        predictor = HttpPredictor("http://model.local/extract", session=session)
        out = predictor.predict("inst", "doc text", ["employer"])
        assert out == "(a | b | employer)"
        assert session.posts[0]["json"] == {
            "instruction": "inst", "document": "doc text", "relations": ["employer"]}

    def test_retries_5xx_then_succeeds(self):
        session = FakeSession([FakeResponse(502), FakeResponse(200, "ok")])
        predictor = HttpPredictor("http://m/x", session=session, backoff_base=0.0)
        assert predictor.predict("i", "d", ["r"]) == "ok"
        assert len(session.posts) == 2

    def test_4xx_fails_immediately(self):
        session = FakeSession([FakeResponse(404)])
        predictor = HttpPredictor("http://m/x", session=session, backoff_base=0.0)
        with pytest.raises(PredictorError, match="404"):
            predictor.predict("i", "d", ["r"])
        assert len(session.posts) == 1

    def test_close_closes_the_session(self):
        session = FakeSession([])
        HttpPredictor("http://m/x", session=session).close()
        assert session.closes == 1


class TestOraclePredictor:
    @pytest.fixture
    def registry(self):
        return make_registry(("P1", "employer"), ("P2", "founded by"))

    @pytest.fixture
    def corpus(self, registry):
        docs = [
            build_doc("d1", ["Ada", "Acme"], [("Ada", "Acme", "P1")], title="Doc One"),
            build_doc("d2", ["Grace", "Initech"],
                      [("Grace", "Initech", "P1"), ("Initech", "Grace", "P2")],
                      title="Doc Two"),
        ]
        return build_corpus(docs, registry=registry)

    def test_echoes_gold_for_recognized_title(self, corpus, registry):
        oracle = OraclePredictor(corpus, registry)
        text = render_document_text(corpus.documents[1])
        block = oracle.predict("inst", text, ["employer", "founded by"])
        assert parse_triplet_block(block, registry) == [
            ("Grace", "Initech", "P1"), ("Initech", "Grace", "P2")]

    def test_menu_filters_relations(self, corpus, registry):
        oracle = OraclePredictor(corpus, registry)
        text = render_document_text(corpus.documents[1])
        block = oracle.predict("inst", text, ["founded by"])
        assert parse_triplet_block(block, registry) == [("Initech", "Grace", "P2")]

    def test_drop_noise_is_deterministic_per_document(self, corpus, registry):
        oracle_a = OraclePredictor(corpus, registry, drop_prob=0.5, seed=9)
        oracle_b = OraclePredictor(corpus, registry, drop_prob=0.5, seed=9)
        text = render_document_text(corpus.documents[1])
        assert oracle_a.predict("i", text, ["employer", "founded by"]) == \
            oracle_b.predict("i", text, ["employer", "founded by"])

    def test_unknown_title_is_an_error(self, corpus, registry):
        oracle = OraclePredictor(corpus, registry)
        with pytest.raises(PredictorError, match="Unknown Title"):
            oracle.predict("i", "Unknown Title\nbody", ["employer"])


class TestInferPseudoLabels:
    @pytest.fixture
    def registry(self):
        return make_registry(("P1", "employer"), ("P2", "founded by"), ("P3", "spouse"))

    @pytest.fixture
    def synthetic(self, registry):
        docs = [
            build_doc("s1", ["Ada", "Acme"], [("Ada", "Acme", "P1")], title="T One"),
            build_doc("s2", ["Grace", "Initech"], [("Grace", "Initech", "P1")], title="T Two"),
        ]
        return build_corpus(docs, registry=registry)

    def test_collects_normalized_in_set_predictions(self, synthetic, registry):
        class CannedPredictor:
            def predict(self, instruction, document_text, relation_names):
                title = document_text.splitlines()[0]
                if title == "T One":
                    return "(  ADA | Acme | employer)\n(Ada | Acme | spouse)"
                return "(Grace | Initech | employer)"

        labels = infer_pseudo_labels(
            CannedPredictor(), synthetic, ["P1"], "inst", registry)
        assert labels.by_doc["s1"] == [("ada", "acme", "P1")]
        assert labels.by_doc["s2"] == [("grace", "initech", "P1")]
        assert labels.dropped_out_of_set == 1
        assert labels.unlabeled_docs == []

    def test_predictor_failures_mark_documents_unlabeled(self, synthetic, registry):
        class FlakyPredictor:
            def predict(self, instruction, document_text, relation_names):
                if "T One" in document_text:
                    raise PredictorError("down")
                return "(Grace | Initech | employer)"

        labels = infer_pseudo_labels(
            FlakyPredictor(), synthetic, ["P1"], "inst", registry)
        assert labels.unlabeled_docs == ["s1"]
        assert labels.by_doc["s1"] == []

    def test_too_many_unlabeled_documents_aborts(self, synthetic, registry):
        class DeadPredictor:
            def predict(self, instruction, document_text, relation_names):
                raise PredictorError("down")

        with pytest.raises(PseudoLabelError):
            infer_pseudo_labels(DeadPredictor(), synthetic, ["P1"], "inst", registry)

    def test_label_set_round_trip_and_fact_sets(self):
        labels = PseudoLabelSet(
            by_doc={"d1": [("ada", "acme", "P1"), ("x", "x", "P1")], "d2": []},
            dropped_out_of_set=3,
            unlabeled_docs=["d2"],
        )
        again = PseudoLabelSet.from_json(labels.to_json())
        assert again.by_doc == labels.by_doc
        assert again.dropped_out_of_set == 3
        assert again.unlabeled_docs == ["d2"]
        # self-loops at key level are excluded from graph-building fact sets
        assert labels.fact_sets()["d1"] == {FactKey("ada", "acme", "P1")}
        assert labels.fact_sets()["d2"] == set()
