"""Synthetic workload generator: determinism, label oracles, error injection."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import split_by_scale
from qres.features import FeatureId, extract_features, lg
from qres.plan import NO_PARENT, OperatorType
from qres.synth import (
    INDEX_FANOUT,
    PAGE_BYTES,
    CorpusSpec,
    SynthError,
    TableSpec,
    _table_meta,
    default_oracles,
    default_tables,
    generate_corpus,
    spec_from_json,
)

F = FeatureId


def oracle_label(node, parent_op: int, resource: str) -> float:
    """Noiseless oracle value of one node (true-cardinality features), 0
    where :func:`default_oracles` defines no cost."""
    fv = extract_features(node, parent_op, source="true")
    fn = default_oracles().get((node.op, resource))
    return float(fn(fv.values)) if fn is not None else 0.0


def base_spec(**over) -> CorpusSpec:
    kw = dict(
        templates={name: 1.0 for name in (
            "scan", "filter_scan", "sort_scan", "seek",
            "hash_agg", "hash_join", "merge_join", "nested_loop",
        )},
        tables=[TableSpec("a", 10_000, 100.0, 8), TableSpec("b", 2_000, 120.0, 6)],
        scales=[1.0, 2.0],
        query_count=30,
        rng_seed=42,
    )
    kw.update(over)
    return CorpusSpec(**kw)


def test_spec_validation():
    with pytest.raises(SynthError, match="empty template mix"):
        base_spec(templates={}).validate()
    with pytest.raises(SynthError, match="unknown templates"):
        base_spec(templates={"bogus": 1.0}).validate()
    with pytest.raises(SynthError, match="table"):
        base_spec(tables=[]).validate()
    with pytest.raises(SynthError, match="scale"):
        base_spec(scales=[]).validate()
    with pytest.raises(SynthError, match="bias"):
        base_spec(card_bias=0.0).validate()
    with pytest.raises(SynthError, match="negative rng_seed"):
        base_spec(rng_seed=-1).validate()
    for scales in ([0.0], [1.0, -2.0], [math.nan]):
        with pytest.raises(SynthError, match="scales must be positive"):
            base_spec(scales=scales).validate()
    for bad in (
        TableSpec("z", 0, 100.0, 8),
        TableSpec("z", -5, 100.0, 8),
        TableSpec("z", 100, 0.0, 8),
        TableSpec("z", 100, -1.0, 8),
        TableSpec("z", 100, 100.0, 0),
    ):
        with pytest.raises(SynthError, match="table z: base_tuples, row_bytes and columns"):
            base_spec(tables=[TableSpec("a", 10_000, 100.0, 8), bad]).validate()
    # Counts in a spec file are integers: no fractions, booleans or strings.
    for counts in ({"base_tuples": 100.5, "columns": 4}, {"base_tuples": 100, "columns": True},
                   {"base_tuples": "100", "columns": 4}):
        doc = {"templates": {"scan": 1.0}, "scales": [1], "query_count": 5,
               "tables": [{"table_id": "t", "row_bytes": 50, **counts}]}
        with pytest.raises(SynthError, match="malformed corpus spec: expected an integer"):
            spec_from_json(json.dumps(doc))
    # So are the query count and the seed.
    table = {"table_id": "t", "base_tuples": 100, "row_bytes": 50, "columns": 4}
    for fields in ({"query_count": 2.5}, {"query_count": "5"}, {"query_count": True},
                   {"query_count": 5, "rng_seed": True}, {"query_count": 5, "rng_seed": 1.5},
                   {"query_count": 5, "rng_seed": "9"}):
        doc = {"templates": {"scan": 1.0}, "scales": [1], "tables": [table], **fields}
        with pytest.raises(SynthError, match="malformed corpus spec: expected an integer"):
            spec_from_json(json.dumps(doc))
    # Other numeric fields take numbers only, not strings or booleans.
    for fields in ({"scales": ["2"]}, {"scales": [True]}, {"noise_sigma": "0.1"},
                   {"tables": [{**table, "row_bytes": "50"}]}):
        doc = {"templates": {"scan": 1.0}, "scales": [1], "query_count": 5,
               "tables": [table], **fields}
        with pytest.raises(SynthError, match="malformed corpus spec: expected a number"):
            spec_from_json(json.dumps(doc))


def test_spec_from_json_round_trip():
    spec = spec_from_json("""{
        "templates": {"scan": 1.0},
        "tables": [{"table_id": "t", "base_tuples": 100, "row_bytes": 50, "columns": 4}],
        "scales": [1, 2],
        "query_count": 5,
        "rng_seed": 9,
        "noise_sigma": 0.1
    }""")
    assert spec.rng_seed == 9
    assert spec.tables[0].base_tuples == 100
    assert spec.noise_sigma == 0.1


def test_table_meta_derivation():
    # [DERIVED] pages = ceil(tuples*row_bytes/8192); depth = ceil(ln n / ln 128)
    t = TableSpec("t", 10_000, 100.0, 8)
    meta = _table_meta(t, 2.0)
    assert meta.tuple_count == 20_000
    assert meta.page_count == math.ceil(20_000 * 100.0 / PAGE_BYTES)
    assert meta.index_depth == math.ceil(math.log(20_000) / math.log(INDEX_FANOUT))


def test_generation_deterministic():
    from qres.plan import plan_to_json

    a = generate_corpus(base_spec(noise_sigma=0.05, card_sigma=0.1))
    b = generate_corpus(base_spec(noise_sigma=0.05, card_sigma=0.1))
    assert [plan_to_json(p) for p in a] == [plan_to_json(p) for p in b]


def test_different_seed_changes_corpus():
    from qres.plan import plan_to_json

    a = generate_corpus(base_spec())
    b = generate_corpus(base_spec(rng_seed=43))
    assert [plan_to_json(p) for p in a] != [plan_to_json(p) for p in b]


def test_plans_valid_and_labeled():
    corpus = generate_corpus(base_spec(noise_sigma=0.05))
    assert len(corpus) == 30
    for plan in corpus:
        plan.validate()
        assert plan.scale in (1.0, 2.0)
        assert plan.template in base_spec().templates
        nodes = list(plan.root.walk())
        assert len(plan.labels("cpu_us")) == len(plan.labels("logical_io")) == len(nodes)
        assert plan.query_id.startswith("q")


def test_noiseless_labels_match_oracle():
    corpus = generate_corpus(base_spec(noise_sigma=0.0))
    for plan in corpus:
        stack = [(plan.root, NO_PARENT)]
        while stack:
            node, parent = stack.pop()
            for resource in ("cpu_us", "logical_io"):
                want = oracle_label(node, parent, resource)
                assert node.observed[resource] == pytest.approx(want)
            stack.extend((c, int(node.op)) for c in node.children)


def test_sort_cpu_oracle_value():
    # [DERIVED] a sort of 1024 tuples with the comparison term zeroed:
    # 2 * 1024 * log2(1024) = 20480
    oracles = default_oracles()
    fn = oracles[(OperatorType.Sort, "cpu_us")]
    v = {F.CIN1: 1024.0, F.MINCOMP: 0.0}
    assert fn(v) == pytest.approx(2.0 * 1024.0 * 10.0)
    assert fn(v) == 20480.0


def test_oracle_shapes_distinct():
    # Filter linear; sort n log n; nested loop log in the seek-table size.
    oracles = default_oracles()
    filt = oracles[(OperatorType.Filter, "cpu_us")]
    assert filt({F.CIN1: 100.0}) * 2 == filt({F.CIN1: 200.0})
    sort = oracles[(OperatorType.Sort, "cpu_us")]
    r = sort({F.CIN1: 2048.0, F.MINCOMP: 0.0}) / sort({F.CIN1: 1024.0, F.MINCOMP: 0.0})
    assert r == pytest.approx(2 * 11 / 10)
    nl = oracles[(OperatorType.NestedLoopJoin, "cpu_us")]
    assert nl({F.CIN1: 10.0, F.SSEKTABLE: 1024.0}) == pytest.approx(0.7 * 10.0 * 10.0)


def test_unmapped_oracle_costs_zero():
    assert (OperatorType.Filter, "logical_io") not in default_oracles()
    corpus = generate_corpus(base_spec(noise_sigma=0.2, templates={"filter_scan": 1.0}))
    for plan in corpus:
        assert plan.root.op is OperatorType.Filter
        assert plan.root.observed["logical_io"] == 0.0


def test_cardinality_error_spares_full_scans():
    corpus = generate_corpus(base_spec(card_sigma=0.5, card_bias=2.0))
    biased = exact = 0
    for plan in corpus:
        for node in plan.root.walk():
            if node.op in (OperatorType.TableScan, OperatorType.IndexScan):
                assert node.est_out_cardinality == node.true_out_cardinality
                exact += 1
            elif node.est_out_cardinality != node.true_out_cardinality:
                biased += 1
    assert exact > 0 and biased > 0


def test_cardinality_bias_is_systematic():
    corpus = generate_corpus(base_spec(card_sigma=0.0, card_bias=2.0, query_count=40))
    for plan in corpus:
        for node in plan.root.walk():
            if node.op not in (OperatorType.TableScan, OperatorType.IndexScan):
                want = max(1, math.ceil(node.true_out_cardinality * 2.0))
                assert node.est_out_cardinality == want


def test_label_noise_is_multiplicative_lognormal():
    spec = base_spec(noise_sigma=0.2, query_count=200,
                     templates={"scan": 1.0})
    corpus = generate_corpus(spec)
    ratios = []
    for plan in corpus:
        want = oracle_label(plan.root, NO_PARENT, "cpu_us")
        ratios.append(plan.root.observed["cpu_us"] / want)
    logs = np.log(ratios)
    assert abs(float(np.mean(logs))) < 0.06
    assert float(np.std(logs)) == pytest.approx(0.2, abs=0.05)


def test_optimizer_cost_positive_everywhere():
    corpus = generate_corpus(base_spec())
    for plan in corpus:
        for node in plan.root.walk():
            assert node.est_io_cost > 0.0


def test_split_by_scale_partition():
    corpus = generate_corpus(base_spec(scales=[1.0, 2.0, 4.0], query_count=60))
    small, large = split_by_scale(corpus, 2.0)
    assert len(small) + len(large) == len(corpus)
    assert all(p.scale <= 2.0 for p in small)
    assert all(p.scale > 2.0 for p in large)


def test_hash_join_builds_on_smaller_input():
    corpus = generate_corpus(base_spec(templates={"hash_join": 1.0}, query_count=20))
    for plan in corpus:
        node = plan.root
        assert node.op is OperatorType.HashJoin
        build, probe = node.children
        assert build.table.tuple_count <= probe.table.tuple_count


def test_default_tables_usable():
    spec = base_spec(tables=default_tables(), query_count=8)
    corpus = generate_corpus(spec)
    assert len(corpus) == 8


def test_all_template_corpus_bytes_are_pinned(tmp_path):
    # The draw order is part of the corpus. This pin covers every template,
    # scales past the training range, a biased and noisy optimizer, noisy
    # labels, and a one-table catalog, where a join reads one table twice.
    import hashlib

    from qres.plan import save_corpus

    every = {name: 1.0 for name in (
        "scan", "filter_scan", "sort_scan", "sort_filter_scan", "seek",
        "hash_agg", "hash_join", "merge_join", "nested_loop",
    )}
    digest = hashlib.sha256()
    for tables in (default_tables(), [TableSpec("solo", 3_000, 90.0, 5)]):
        spec = base_spec(
            templates=every, tables=tables, scales=[1.0, 4.0, 16.0, 64.0], query_count=120,
            rng_seed=997, noise_sigma=0.1, card_sigma=0.3, card_bias=1.7,
        )
        path = tmp_path / "corpus.jsonl"
        save_corpus(generate_corpus(spec), str(path))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == (
        "48d7cd7bd276bbbed38ab99efa01d36984f3ac0175eed9642ad8bd88366cbc26"
    )
