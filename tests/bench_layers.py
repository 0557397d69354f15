"""Micro benchmarks for the mock world, corpus validation, loading a DocRED
source, the split and pseudo-label stages, mention grounding, relabeling,
bulk JSON writes (corpora and generation records), finetune-data assembly and
hashing a run directory's files.  The two stages also report their
tracemalloc peak and the bytes of the files they write in the benchmark's
``extra_info`` (``--benchmark-json``) and on standard output (``-s``).

Each layer runs at two sizes; the larger one has four times the documents
and four times the world facts, so near-linear code takes about four times
as long and a per-document scan of every fact about sixteen times.

Not collected by the default test run (its file name does not match
``test_*.py``).  Run it on its own::

    PYTHONPATH=src python -m pytest tests/bench_layers.py
"""
from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from docrte.backends import ScriptedBackend
from docrte.config import config_from_dict, strip_json_comments
from docrte.denoise import relabel_corpus
from docrte.docio import (
    file_digest,
    load_docred,
    save_corpus,
    save_docred,
    write_chunks_atomic,
)
from docrte.generate import (
    ChainConfig,
    generate_corpus,
    ground_entity_mentions,
    load_records,
    lowered_sentences,
    records_chunks,
)
from docrte.model import Corpus, fact_keys, validate_corpus
from docrte.pipeline import PipelineRunner
from docrte.pseudo import (
    FinetunePolicy,
    assemble_finetune_dataset,
    partition_relations,
    write_finetune_file,
)
from docrte.simulate import (
    MockWorldParams,
    build_world,
    chat_script,
    mock_generation_corpus,
    synthetic_registry,
    world_documents,
    write_demo_inputs,
)

UNSEEN = 10
# size -> (world facts per relation, documents per unseen relation)
SIZES = {"small": (20, 20), "large": (80, 80)}


@pytest.fixture(scope="module", params=list(SIZES))
def scenario(request):
    facts_per_relation, docs_per_relation = SIZES[request.param]
    registry = synthetic_registry(3 * UNSEEN)
    ids = registry.ids()
    world = build_world(registry, ids[:UNSEEN], seed=1, facts_per_relation=facts_per_relation,
                        related_pool=ids[UNSEEN:], n_related=2)
    corpus = world_documents(world, docs_per_relation, facts_per_doc=3, seed=1)
    kept = set(world.facts)
    return world, docs_per_relation, corpus, kept


@pytest.mark.benchmark(group="world_documents")
def test_world_documents(benchmark, scenario):
    world, docs_per_relation, corpus, _ = scenario
    out = benchmark(world_documents, world, docs_per_relation, 3, 1)
    assert len(out.documents) == len(corpus.documents)


@pytest.mark.benchmark(group="mock_generation_corpus")
@pytest.mark.parametrize("size", list(SIZES))
def test_mock_generation_corpus(benchmark, size):
    facts_per_relation, docs_per_relation = SIZES[size]
    registry = synthetic_registry(3 * UNSEEN)
    ids = registry.ids()
    params = MockWorldParams(facts_per_relation=facts_per_relation)
    _, truth, corrupted = benchmark(mock_generation_corpus, registry, ids[:UNSEEN],
                                    ids[UNSEEN:], 1, docs_per_relation, 2, params)
    assert len(truth.documents) == len(corrupted.documents) == UNSEEN * docs_per_relation


@pytest.mark.benchmark(group="validate_corpus")
def test_validate_corpus(benchmark, scenario):
    _, _, corpus, _ = scenario
    benchmark(validate_corpus, corpus)


@pytest.mark.benchmark(group="load_docred")
def test_load_docred(benchmark, scenario, tmp_path):
    world, _, corpus, _ = scenario
    path = tmp_path / "source.json"
    save_docred(Corpus(corpus.documents, "human", world.registry), path)
    loaded = benchmark(load_docred, path, world.registry)
    assert save_docred(loaded, tmp_path / "again.json") == file_digest(path)


@pytest.fixture(scope="module", params=list(SIZES))
def split_config(request, tmp_path_factory):
    """A three-seed config over train, dev and test sources with the
    documents per relation of a size, over every relation."""
    work = tmp_path_factory.mktemp("split")
    write_demo_inputs(work, n_relations=3 * UNSEEN)
    registry = synthetic_registry(3 * UNSEEN)
    ids = registry.ids()
    for world_seed, name in enumerate(("train", "dev", "test")):
        world = build_world(registry, ids, seed=world_seed, facts_per_relation=3,
                            related_pool=ids, n_related=2)
        corpus = world_documents(world, SIZES[request.param][1] // 4, facts_per_doc=3,
                                 seed=world_seed, id_prefix=f"{name}-")
        save_docred(Corpus(corpus.documents, "human", registry), work / f"{name}.json")
    data = json.loads(strip_json_comments((work / "config.json").read_text(encoding="utf-8")))
    data.update(m=UNSEEN, seeds=[1, 2, 3])
    return request.param, config_from_dict(data, base_dir=work)


def bench_stage(benchmark, size, config, stage, folder):
    """Benchmark a forced run of ``stage`` alone, then report its traced peak
    and the bytes of the files in ``folder`` of the run directory."""

    def run():
        return PipelineRunner(config).run([stage], force=True)

    outcomes = benchmark(run)
    assert [(o.stage, o.status) for o in outcomes] == [(stage, "ran")]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in Path(config.run_dir, folder).iterdir())
    benchmark.extra_info["tracemalloc_peak_mb"] = peak
    benchmark.extra_info["bytes_written"] = written
    print(f"\n{stage} ({size}): tracemalloc peak {peak:.2f} MB, {written:,} bytes written")


@pytest.mark.benchmark(group="split")
def test_split_stage(benchmark, split_config):
    bench_stage(benchmark, *split_config, "split", "split")


@pytest.fixture(scope="module", params=list(SIZES))
def pseudo_config(request, tmp_path_factory):
    """A one-seed mock run with split and generate done, over the world facts
    and documents per unseen relation of a size."""
    facts_per_relation, docs_per_relation = SIZES[request.param]
    work = tmp_path_factory.mktemp("pseudo")
    write_demo_inputs(work, n_relations=3 * UNSEEN)
    data = json.loads(strip_json_comments((work / "config.json").read_text(encoding="utf-8")))
    data.update(m=UNSEEN, seeds=[1], docs_per_relation=docs_per_relation,
                mock={"facts_per_relation": facts_per_relation})
    config = config_from_dict(data, base_dir=work)
    PipelineRunner(config).run(["split", "generate"])
    return request.param, config


@pytest.mark.benchmark(group="pseudo_label")
def test_pseudo_label_stage(benchmark, pseudo_config):
    bench_stage(benchmark, *pseudo_config, "pseudo-label", "pseudo")


@pytest.mark.benchmark(group="mention_grounding")
def test_mention_grounding(benchmark, scenario):
    _, _, corpus, _ = scenario

    def ground_every_entity():
        found = 0
        for doc in corpus.documents:
            lowered = lowered_sentences(doc.sentences)
            for ent in doc.entities:
                found += len(ground_entity_mentions(ent.canonical_name, doc.sentences,
                                                   ent.etype, lowered))
        return found

    found = benchmark(ground_every_entity)
    assert found == sum(len(e.mentions) for d in corpus.documents for e in d.entities)


@pytest.mark.benchmark(group="relabel_corpus")
def test_relabel_corpus(benchmark, scenario):
    world, _, corpus, kept = scenario
    denoised, report = benchmark(relabel_corpus, corpus, kept, world.unseen)
    # the corpus is the world's exhaustive closure, so nothing is added or removed
    assert report.counts["labels_added"] == report.counts["labels_removed"] == 0
    assert [fact_keys(d) for d in denoised.documents] == [fact_keys(d) for d in corpus.documents]


@pytest.mark.benchmark(group="bulk_json_write")
def test_save_corpus(benchmark, scenario, tmp_path):
    _, _, corpus, _ = scenario
    path = tmp_path / "corpus.json"
    benchmark(save_corpus, corpus, path)
    assert path.stat().st_size > 0


@pytest.mark.benchmark(group="bulk_json_write")
@pytest.mark.parametrize("size", list(SIZES))
def test_write_records(benchmark, size, tmp_path):
    facts_per_relation, docs_per_relation = SIZES[size]
    registry = synthetic_registry(3 * UNSEEN)
    ids = registry.ids()
    world, _, corrupted = mock_generation_corpus(
        registry, ids[:UNSEEN], ids[UNSEEN:], 1, docs_per_relation, 2,
        MockWorldParams(facts_per_relation=facts_per_relation))
    _, records = generate_corpus(
        ScriptedBackend(chat_script(world, corrupted), record_calls=False), ids[:UNSEEN],
        registry, ChainConfig(n_related=2, docs_per_relation=docs_per_relation))
    path = tmp_path / "records.json"
    benchmark(lambda: write_chunks_atomic(path, records_chunks(records)))
    assert load_records(path) == [r.to_json() for r in records]


@pytest.mark.benchmark(group="finetune_data")
def test_finetune_data(benchmark, scenario, tmp_path):
    world, _, corpus, _ = scenario
    groups = partition_relations(world.registry.ids(), group_size=5, seed=1)
    policy = FinetunePolicy(instruction="Extract the relation triplets.", seed=1)
    path = tmp_path / "samples.jsonl"

    def assemble_and_write():
        samples = assemble_finetune_dataset(corpus, groups, policy, world.registry)
        write_finetune_file(samples, path)
        return samples

    samples = benchmark(assemble_and_write)
    assert len(samples) == len(corpus.documents) * len(groups)
    assert len(path.read_text(encoding="utf-8").splitlines()) == len(samples)


@pytest.fixture(scope="module", params=list(SIZES))
def run_files(request, tmp_path_factory):
    """Every file of a mock run directory, with the documents per relation of a size."""
    work = tmp_path_factory.mktemp("run")
    write_demo_inputs(work, n_relations=3 * UNSEEN)
    data = json.loads(strip_json_comments((work / "config.json").read_text(encoding="utf-8")))
    data.update(m=UNSEEN, seeds=[1], docs_per_relation=SIZES[request.param][1])
    config = config_from_dict(data, base_dir=work)
    PipelineRunner(config).run()
    return sorted(p for p in (work / config.run_dir).rglob("*") if p.is_file())


@pytest.mark.benchmark(group="file_digest")
def test_file_digest(benchmark, run_files):
    digests = benchmark(lambda: [file_digest(p) for p in run_files])
    assert digests == [hashlib.sha256(p.read_bytes()).hexdigest() for p in run_files]
