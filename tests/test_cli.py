"""Command-line interface: subcommands, determinism, exit codes."""
from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import INNER_TABLE_JOIN
from qres.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from qres.plan import plan_to_json

SPEC = {
    "templates": {"scan": 1.0, "sort_scan": 1.0, "hash_join": 1.0},
    "tables": [
        {"table_id": "a", "base_tuples": 20000, "row_bytes": 100, "columns": 8},
        {"table_id": "b", "base_tuples": 4000, "row_bytes": 120, "columns": 6},
    ],
    "scales": [1, 2, 4],
    "query_count": 24,
    "rng_seed": 11,
    "noise_sigma": 0.05,
    "card_sigma": 0.1,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    corpus = root / "corpus.jsonl"
    model = root / "model.bin"
    assert main(["gen", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK
    assert main([
        "train", "--corpus", str(corpus), "--out", str(model),
        "--iterations", "40", "--seed", "0",
    ]) == EXIT_OK
    return root, spec, corpus, model


def test_gen_deterministic(workspace, tmp_path):
    root, spec, corpus, _ = workspace
    other = tmp_path / "again.jsonl"
    assert main(["gen", "--spec", str(spec), "--out", str(other)]) == EXIT_OK
    assert other.read_bytes() == corpus.read_bytes()


def test_gen_seed_override(workspace, tmp_path):
    _, spec, corpus, _ = workspace
    other = tmp_path / "seeded.jsonl"
    assert main(["gen", "--spec", str(spec), "--out", str(other), "--seed", "99"]) == EXIT_OK
    assert other.read_bytes() != corpus.read_bytes()


def test_train_deterministic(workspace, tmp_path):
    _, _, corpus, model = workspace
    other = tmp_path / "model2.bin"
    assert main([
        "train", "--corpus", str(corpus), "--out", str(other),
        "--iterations", "40", "--seed", "0",
    ]) == EXIT_OK
    assert other.read_bytes() == model.read_bytes()


def test_estimate_outputs_totals(workspace, tmp_path, capsys):
    _, _, corpus, model = workspace
    out = tmp_path / "est.json"
    assert main([
        "estimate", "--model", str(model), "--plans", str(corpus),
        "--resource", "cpu", "--out", str(out),
    ]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc) == SPEC["query_count"]
    for entry in doc:
        assert entry["total"] == pytest.approx(sum(entry["per_pipeline"]))
        assert entry["total"] >= 0.0


def test_eval_report(workspace, tmp_path, capsys):
    _, _, corpus, model = workspace
    prefix = tmp_path / "report"
    assert main([
        "eval", "--model", str(model), "--corpus", str(corpus),
        "--resource", "cpu", "--baselines", "--train-corpus", str(corpus),
        "--seed", "0", "--out", str(prefix),
    ]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "technique,L1,R<=1.5,R in [1.5:2],R>2"
    names = [line.split(",")[0] for line in text.strip().splitlines()[1:]]
    assert set(names) == {"SCALING", "MART", "LINEAR", "OPT"}
    doc = json.loads((tmp_path / "report.json").read_text())
    assert set(doc) == {"SCALING", "MART", "LINEAR", "OPT"}


def test_eval_baselines_require_train_corpus(workspace):
    _, _, corpus, model = workspace
    code = main([
        "eval", "--model", str(model), "--corpus", str(corpus), "--baselines",
    ])
    assert code == EXIT_USAGE


def test_eval_baselines_on_empty_train_corpus_is_data_error(workspace, tmp_path, capsys):
    # The baselines train on the file, so an empty one is refused as
    # ``qres train`` refuses it, before any operator lacks a model.
    _, _, corpus, model = workspace
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    prefix = tmp_path / "report"
    assert main([
        "eval", "--model", str(model), "--corpus", str(corpus), "--resource", "cpu",
        "--baselines", "--train-corpus", str(empty), "--out", str(prefix),
    ]) == EXIT_DATA
    assert capsys.readouterr().err == "error: empty training corpus\n"
    assert not (tmp_path / "report.csv").exists()


def test_fit_scaling_selects_generating_form(tmp_path, capsys):
    import math

    csv_path = tmp_path / "obs.csv"
    rows = ["CIN1,resource"]
    for n in (100, 200, 400, 800, 1600):
        rows.append(f"{n},{2 * n * math.log2(n)}")
    csv_path.write_text("\n".join(rows) + "\n")
    assert main(["fit-scaling", "--csv", str(csv_path), "--features", "CIN1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["selected"]["kind"] == "NLogN"
    assert doc["selected"]["alpha"] == pytest.approx(2.0)
    assert {c["kind"] for c in doc["candidates"]} == {"Linear", "NLogN", "Power", "Log"}


@pytest.mark.parametrize("features", ["CIN1", "CIN1,CIN2"])
def test_fit_scaling_fits_each_candidate_once(tmp_path, capsys, monkeypatch, features):
    # The selected form is picked from the fits the report lists.
    from qres import scaling

    fits = []
    fit_form = scaling.fit_form

    def counted(kind, order, observations):
        fits.append((kind, order))
        return fit_form(kind, order, observations)

    monkeypatch.setattr(scaling, "fit_form", counted)
    csv_path = tmp_path / "obs.csv"
    rows = ["CIN1,CIN2,resource"] + [f"{n},{3 * n + 7},{5 * n}" for n in (10, 40, 90, 250)]
    csv_path.write_text("\n".join(rows) + "\n")
    assert main(["fit-scaling", "--csv", str(csv_path), "--features", features]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(fits) == len(set(fits)) == len(doc["candidates"])


#: ``--features`` values naming an unknown feature, and the name reported.
_UNKNOWN_FEATURES = {"FOO": "FOO", "CIN1,": "", "CIN1,cin2": "cin2", "CIN1,1": "1"}


@pytest.mark.parametrize(
    "features", ["CIN1,CIN2,COUT", "CIN1,CIN1", "CIN1, CIN1", *_UNKNOWN_FEATURES]
)
def test_fit_scaling_on_a_third_or_repeated_feature_is_usage_error(tmp_path, capsys, features):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("CIN1,CIN2,COUT,resource\n10,3,5,50\n40,7,20,200\n90,11,45,450\n")
    assert main(["fit-scaling", "--csv", str(csv_path), "--features", features]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    if features in _UNKNOWN_FEATURES:
        assert f"argument --features: unknown feature name {_UNKNOWN_FEATURES[features]!r}\n" in err
    else:
        assert "argument --features: one or two distinct feature names" in err


def test_inspect_lists_models(workspace, capsys):
    _, _, _, model = workspace
    assert main(["inspect", "--model", str(model)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    ops = {e["operator"] for e in doc}
    assert "TableScan" in ops and "Sort" in ops
    for e in doc:
        assert e["models"][0]["kind"] == "mart"
        assert 0 <= e["default_index"] < len(e["models"])


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["train", "--corpus", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "m.bin")]) == EXIT_DATA


def test_malformed_corpus_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"root": {"op": "Nope"}}\n')
    assert main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.bin")]) == EXIT_DATA


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gen", "--bogus"]) == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_train_report_prints_default_models_training_rmse(workspace, tmp_path, capsys):
    from conftest import labeled_vectors

    from qres.plan import load_corpus
    from qres.registry import estimate_with_model, load_registry

    _, _, corpus, _ = workspace
    model = tmp_path / "model.bin"
    assert main([
        "train", "--corpus", str(corpus), "--out", str(model),
        "--iterations", "40", "--seed", "0",
    ]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[1:]
    registry = load_registry(str(model))
    plans = load_corpus(str(corpus))
    assert len(lines) == len(registry.entries)
    for line in lines:
        op_name, resource, _, default, rmse_field = line.split()
        entry = next(
            e for (op, res), e in registry.entries.items()
            if op.name == op_name and res == resource
        )
        assert default == f"default=#{entry.default_idx}"
        examples = labeled_vectors(plans, resource, entry.op)
        default_model = entry.models[entry.default_idx]
        sse = sum((estimate_with_model(default_model, fv) - y) ** 2 for fv, y in examples)
        assert rmse_field == f"train_rmse={(sse / len(examples)) ** 0.5:.3f}"


def test_fit_scaling_two_features_lists_both_flogsecond_orders(tmp_path, capsys):
    import math

    from qres.features import FeatureId
    from qres.scaling import FormKind, select_form

    points = [(10, 1000), (20, 5000), (50, 200), (80, 70000), (200, 3000), (400, 900)]
    observations = [([float(a), float(b)], 0.7 * a * math.log2(b)) for a, b in points]
    csv_path = tmp_path / "obs2.csv"
    csv_path.write_text(
        "CIN1,SSEKTABLE,resource\n"
        + "".join(f"{a!r},{b!r},{y!r}\n" for (a, b), y in observations)
    )
    assert main([
        "fit-scaling", "--csv", str(csv_path), "--features", "CIN1,SSEKTABLE",
    ]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [(c["kind"], c["features"]) for c in doc["candidates"]] == [
        ("Product2", ["CIN1", "SSEKTABLE"]),
        ("Sum2", ["CIN1", "SSEKTABLE"]),
        ("FLogSecond", ["CIN1", "SSEKTABLE"]),
        ("FLogSecond", ["SSEKTABLE", "CIN1"]),
    ]
    best = select_form(
        (FormKind.Product2, FormKind.Sum2, FormKind.FLogSecond),
        (FeatureId.CIN1, FeatureId.SSEKTABLE),
        observations,
    )
    assert doc["selected"] == {
        "kind": best.kind.name,
        "features": [f.name for f in best.features],
        "alpha": best.alpha,
        "beta": best.beta,
    }
    assert doc["selected"]["kind"] == "FLogSecond"
    assert doc["selected"]["features"] == ["CIN1", "SSEKTABLE"]


def test_estimate_on_too_deep_plan_is_data_error(workspace, tmp_path, capsys):
    _, _, _, model = workspace
    depth = 600
    scan = (
        '{"op":"TableScan","card_true":100,"card_est":100,"table":{"table_id":"a",'
        '"tuple_count":100,"page_count":2,"column_count":8,"avg_row_bytes":100.0}}'
    )
    root = '{"op":"Filter","card_true":50,"card_est":50,"children":[' * depth + scan + "]}" * depth
    plans = tmp_path / "deep.jsonl"
    plans.write_text('{"query_id":"deep","root":' + root + "}\n")
    code = main(["estimate", "--model", str(model), "--plans", str(plans)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


def test_estimate_on_corrupt_model_is_data_error(workspace, tmp_path, capsys):
    _, _, corpus, model = workspace
    corrupt = bytearray(model.read_bytes())
    corrupt[7] = 0  # the first entry's operator code
    bad = tmp_path / "corrupt.bin"
    bad.write_bytes(bytes(corrupt))
    code = main(["estimate", "--model", str(bad), "--plans", str(corpus)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid OperatorType code 0" in err


@pytest.mark.parametrize("command", ["estimate", "eval"])
def test_model_without_a_plain_model_on_a_zero_scale_feature_is_data_error(
    workspace, tmp_path, capsys, command
):
    # The decoder accepts an entry of combined models only; a Sort whose
    # input cardinality is 0 cannot be scaled by CIN1 and has no plain model
    # to fall back on.
    from qres.features import FeatureId
    from qres.plan import OperatorType, load_corpus, save_corpus
    from qres.registry import CombinedModel, load_registry, save_registry

    _, _, corpus, model = workspace
    registry = load_registry(str(model))
    entry = registry.entry(OperatorType.Sort, "cpu_us")
    entry.models = [
        m for m in entry.models
        if isinstance(m, CombinedModel) and m.scale_feature_ids == [FeatureId.CIN1]
    ]
    assert len(entry.models) == 1
    entry.default_idx = 0
    cut, plans = tmp_path / "cut.bin", tmp_path / "plans.jsonl"
    save_registry(registry, str(cut))
    plan = next(p for p in load_corpus(str(corpus)) if p.root.op is OperatorType.Sort)
    plan.root.children[0].true_out_cardinality = 0
    save_corpus([plan], str(plans))
    flag = "--plans" if command == "estimate" else "--corpus"
    code = main([command, "--model", str(cut), flag, str(plans), "--resource", "cpu"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "error: degenerate scaling feature: CIN1 absent or non-positive\n"


def test_estimate_on_a_repeated_scale_feature_is_data_error(workspace, tmp_path, capsys):
    # Product2(f, f) is a valid term to the decoder's per-term checks, but
    # it would normalize by f twice and scale by f squared.
    from qres.registry import CombinedModel, ScaleTerm, load_registry, save_registry
    from qres.scaling import FormKind

    _, _, corpus, model = workspace
    registry = load_registry(str(model))
    combined = next(
        m for e in registry.entries.values() for m in e.models if isinstance(m, CombinedModel)
    )
    f = combined.terms[0].features[0]
    combined.terms[:] = [ScaleTerm(FormKind.Product2, (f, f))]
    bad = tmp_path / "twice.bin"
    save_registry(registry, str(bad))
    assert main(["estimate", "--model", str(bad), "--plans", str(corpus)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: repeated scaling feature in a ")


@pytest.mark.parametrize("child", [[2, 2, 0, 0, 0], [4, 0, 2, 0, 0]])
def test_estimate_on_a_tree_that_is_not_in_pre_order_is_data_error(
    workspace, tmp_path, capsys, child
):
    # Every offset lands inside the tree and it has one leaf more than
    # splits, but two splits share a child, so the mask kernel and a walk
    # of the nodes would disagree.
    import numpy as np

    from qres.gbrt import MartModel, Tree
    from qres.registry import CombinedModel, load_registry, save_registry

    _, _, corpus, model = workspace
    registry = load_registry(str(model))
    entry = next(iter(registry.entries.values()))
    mart = entry.models[0]
    assert not isinstance(mart, CombinedModel)
    f = int(mart.schema[0])
    tree = Tree(
        child=np.array(child, dtype=np.uint8),
        feature=np.array([f if c else 0 for c in child], dtype=np.uint8),
        value=np.zeros(len(child), dtype=np.float32),
    )
    entry.models[0] = MartModel(
        mart.init, [tree, *mart.trees[1:]], mart.learning_rate, mart.schema, mart.feature_stats
    )
    bad = tmp_path / "shape.bin"
    save_registry(registry, str(bad))
    assert main(["estimate", "--model", str(bad), "--plans", str(corpus)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: malformed tree: nodes are not a pre-order tree\n"


@pytest.mark.parametrize("field", ['"observed":[1,2]', '"cols":[1]', '"row_bytes":NaN'])
def test_estimate_on_malformed_plan_field_is_data_error(workspace, tmp_path, capsys, field):
    _, _, _, model = workspace
    plans = tmp_path / "plan.jsonl"
    plans.write_text(
        '{"root":{"op":"TableScan","card_true":10,"card_est":10,' + field + ','
        '"table":{"table_id":"a","tuple_count":10,"page_count":1,"column_count":2,'
        '"avg_row_bytes":10.0}}}\n'
    )
    code = main(["estimate", "--model", str(model), "--plans", str(plans)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")


def test_estimate_on_a_bad_table_below_a_join_is_data_error(workspace, tmp_path, capsys):
    _, _, _, model = workspace
    plans = tmp_path / "plan.jsonl"
    plans.write_text(INNER_TABLE_JOIN + "\n")
    assert main(["estimate", "--model", str(model), "--plans", str(plans)]) == EXIT_DATA
    assert "root.children[1]: negative tuple_count -5000" in capsys.readouterr().err


_HUGE_CARD_SCAN = (
    '{"query_id":"huge","root":{"op":"TableScan","card_true":%s,"card_est":10,'
    '"observed":{"cpu_us":1.0,"logical_io":1.0},"table":{"table_id":"a","tuple_count":10,'
    '"page_count":1,"column_count":2,"avg_row_bytes":10.0}}}\n' % ("9" * 401)
)


def test_estimate_on_cardinality_beyond_float_range_is_data_error(workspace, tmp_path, capsys):
    _, _, _, model = workspace
    plans = tmp_path / "huge.jsonl"
    plans.write_text(_HUGE_CARD_SCAN)
    assert main(["estimate", "--model", str(model), "--plans", str(plans)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large to convert to float" in err


def test_train_on_cardinality_beyond_float_range_is_data_error(workspace, tmp_path, capsys):
    _, _, corpus, _ = workspace
    plans = tmp_path / "huge.jsonl"
    plans.write_text(corpus.read_text() + _HUGE_CARD_SCAN)
    out = tmp_path / "model.bin"
    code = main(["train", "--corpus", str(plans), "--out", str(out), "--iterations", "2"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large to convert to float" in err
    assert not out.exists()


def test_estimate_and_eval_output_bytes_are_pinned(small_corpus, fast_cfg, tmp_path, capsys):
    # The batch estimation path keeps every output byte of the per-plan path
    # it replaced.
    import hashlib

    from qres.plan import save_corpus
    from qres.registry import save_registry, train_registry

    corpus, model = tmp_path / "corpus.jsonl", tmp_path / "model.bin"
    save_corpus(small_corpus, str(corpus))
    save_registry(train_registry(small_corpus, ["cpu_us", "logical_io"], fast_cfg), str(model))
    digests = {}
    for resource in ("cpu", "io"):
        out = tmp_path / f"est-{resource}.json"
        assert main([
            "estimate", "--model", str(model), "--plans", str(corpus),
            "--resource", resource, "--out", str(out),
        ]) == EXIT_OK
        prefix = tmp_path / f"eval-{resource}"
        assert main([
            "eval", "--model", str(model), "--corpus", str(corpus), "--resource", resource,
            "--baselines", "--train-corpus", str(corpus), "--out", str(prefix),
        ]) == EXIT_OK
        for path in (out, tmp_path / f"eval-{resource}.csv", tmp_path / f"eval-{resource}.json"):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == {
        "est-cpu.json": "e4044f40ec5738035edc7fed92797e38d6fb598c54f34161306a823bc1e837e3",
        "est-io.json": "25f2570b4c769cc62e2420bc93da21f1c10c8795ee48eccab52ee1d6089a3f07",
        "eval-cpu.csv": "5e195aaeef83e9f0f10ab83f2fec665ff0aaf5d83536628bc873778a3fb73910",
        "eval-cpu.json": "3683caaa88971d7664bdc80a923cbc4e435bf9456b1986b2846b7ee969d59b39",
        "eval-io.csv": "a51879ad8c921427aa54473eb796464fa0cc7f116cf1e29e08fb60a28c1a2ca4",
        "eval-io.json": "4199ee40fa91c730823ccae3f89f8813cf3d4259d103e83a49e2f48da15c8033",
    }


def test_inspect_output_bytes_are_pinned(small_corpus, fast_cfg, tmp_path, capsys):
    # Each model's target transform is derived from its scale terms, not
    # stored; a Power term names its exponent.
    import hashlib

    from qres.registry import save_registry, train_registry

    model = tmp_path / "model.bin"
    save_registry(train_registry(small_corpus, ["cpu_us", "logical_io"], fast_cfg), str(model))
    capsys.readouterr()
    digests = []
    for extra in ([], ["--trees"]):
        assert main(["inspect", "--model", str(model), *extra]) == EXIT_OK
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    # f28e03a182f64840edd28f9d610b4643ad441d773ddda81aab533703ae8b5a19 and
    # 931efb5665c674bc29280a9abdb056f385f748878a0844fe7467cfcb3b66cbc1 while
    # entries whose labels are all 0 kept every combined model as well;
    # 75dc04ff84c305be6dea8b6a5d5a5b1bee5fe43ffb67cee00d062a061e0d6ea9 and
    # 65b6ba12ac2c48a142f0da03500b294a11926fbe93a9f6e08b713c3f27b770be while
    # a Power model's target transform did not name its exponent.
    assert digests == [
        "9202cbd5276795e881604cd7515cc2d3a76371dbad54eeba07c490cfd7e48b9a",
        "8a76923a57fdcbadd04fa29cd61830957dfeb3ebee70fa01a757b627dc80e63c",
    ]


@pytest.mark.parametrize("field,value", [
    ("scales", "[NaN]"), ("scales", "[Infinity]"), ("noise_sigma", "-Infinity"),
    ("query_count", "NaN"), ("card_bias", "NaN"),
])
def test_gen_on_non_finite_spec_number_is_data_error(tmp_path, capsys, field, value):
    text = json.dumps({**SPEC, field: "@"}).replace('"@"', value)
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code = main(["gen", "--spec", str(spec), "--out", str(tmp_path / "c.jsonl")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: malformed corpus spec")


def test_estimate_with_overflowing_scale_factor_is_data_error(small_corpus, tmp_path, capsys):
    from conftest import scaled_seek_registry, seek_plan

    from qres.registry import save_registry

    model, plans = tmp_path / "model.bin", tmp_path / "plans.jsonl"
    save_registry(scaled_seek_registry(small_corpus), str(model))
    plans.write_text(plan_to_json(seek_plan(10**120)) + "\n")
    code = main(["estimate", "--model", str(model), "--plans", str(plans)])
    assert code == EXIT_DATA
    assert "overflows" in capsys.readouterr().err


def test_failed_estimate_writes_nothing(small_corpus, tmp_path, capsys):
    # Every plan is encoded before the output is opened: a plan that fails
    # after one that succeeds leaves an earlier file as it was and prints
    # nothing.
    from conftest import scaled_seek_registry, seek_plan

    from qres.registry import save_registry

    model, plans, out = tmp_path / "model.bin", tmp_path / "plans.jsonl", tmp_path / "est.json"
    save_registry(scaled_seek_registry(small_corpus), str(model))
    plans.write_text(plan_to_json(seek_plan(10_000)) + "\n" + plan_to_json(seek_plan(10**120)) + "\n")
    out.write_bytes(b"earlier output\n")
    argv = ["estimate", "--model", str(model), "--plans", str(plans)]
    assert main([*argv, "--out", str(out)]) == EXIT_DATA
    assert out.read_bytes() == b"earlier output\n"
    assert "overflows" in capsys.readouterr().err
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows" in captured.err


#: Estimate values: signed zeros, the smallest subnormal, values near the
#: float maximum, infinities, NaN, and any other float.
_ESTIMATE_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.7e308, math.inf, -math.inf, math.nan]),
    st.floats(),
)
#: Query ids: any text, lone surrogates included, and ids that need escapes.
_QUERY_ID = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é\u2028", "\ud800", "q\udfff\U0001f600"]),
)


@st.composite
def _estimate_pairs(draw):
    from qres.plan import OperatorType
    from qres.registry import QueryEstimate

    names = st.sampled_from([op.name for op in OperatorType])
    return [
        (draw(_QUERY_ID), QueryEstimate(
            draw(_ESTIMATE_VALUE),
            draw(st.lists(_ESTIMATE_VALUE, max_size=3)),
            draw(st.lists(st.tuples(names, _ESTIMATE_VALUE), max_size=3)),
        ))
        for _ in range(draw(st.integers(0, 5)))
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_estimate_pairs())
def test_estimates_json_equals_json_dumps(pairs):
    from qres.cli import estimates_json

    docs = [
        {
            "query_id": query_id,
            "total": est.total,
            "per_pipeline": est.per_pipeline,
            "per_operator": [{"op": name, "estimate": value} for name, value in est.per_operator],
        }
        for query_id, est in pairs
    ]
    assert estimates_json(pairs) == json.dumps(docs, indent=2, sort_keys=True)


@pytest.mark.parametrize("flag,value", [
    ("--iterations", "0"), ("--max-leaves", "0"), ("--max-leaves", "500"),
    ("--learning-rate", "0"), ("--learning-rate", "nan"),
    ("--subsample", "0"), ("--subsample", "nan"),
])
def test_train_with_out_of_range_setting_is_usage_error(workspace, tmp_path, capsys, flag, value):
    _, _, corpus, _ = workspace
    out = tmp_path / "model.bin"
    assert main(["train", "--corpus", str(corpus), "--out", str(out), flag, value]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_train_with_more_iterations_than_a_model_file_holds_is_usage_error(
    workspace, tmp_path, capsys, monkeypatch
):
    # A model file stores each model's tree count in two bytes; the setting
    # is refused before any training.
    from qres import cli

    def untrainable(*args, **kwargs):
        raise AssertionError("trained despite the setting")

    monkeypatch.setattr(cli, "train_registry", untrainable)
    _, _, corpus, _ = workspace
    out = tmp_path / "model.bin"
    argv = ["train", "--corpus", str(corpus), "--out", str(out), "--iterations", "65536"]
    assert main(argv) == EXIT_USAGE
    assert "two-byte tree count" in capsys.readouterr().err
    assert not out.exists()


def test_train_of_a_model_with_more_trees_than_a_file_holds_is_data_error(
    workspace, tmp_path, capsys, monkeypatch
):
    # Training that somehow yields 65,536 trees for one model fails to save
    # as a data error, not an internal one, and writes no file.
    import numpy as np

    from qres import cli
    from qres.features import applicable_features
    from qres.gbrt import MartModel, PackedTrees
    from qres.plan import OperatorType
    from qres.registry import ModelRegistry, RegistryEntry

    n = 1 << 16
    schema = list(applicable_features(OperatorType.TableScan))
    mart = MartModel(
        0.0,
        PackedTrees(
            np.arange(n + 1), np.zeros(n, np.uint8), np.zeros(n, np.uint8), np.zeros(n, np.float32)
        ),
        0.1, schema, {f: (0.0, 1.0) for f in schema},
    )
    key = (OperatorType.TableScan, "cpu_us")
    monkeypatch.setattr(
        cli, "train_registry", lambda *a, **k: ModelRegistry({key: RegistryEntry(*key, [mart])})
    )
    _, _, corpus, _ = workspace
    out = tmp_path / "model.bin"
    assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == EXIT_DATA
    assert "too many trees" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "eval"])
def test_negative_seed_flag_is_usage_error(workspace, tmp_path, capsys, command):
    _, spec, corpus, model = workspace
    argv = {
        "gen": ["gen", "--spec", str(spec), "--out", str(tmp_path / "c.jsonl")],
        "train": ["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.bin")],
        "eval": [
            "eval", "--model", str(model), "--corpus", str(corpus),
            "--baselines", "--train-corpus", str(corpus),
        ],
    }[command]
    assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
    assert "seed must be >= 0" in capsys.readouterr().err


def test_gen_on_negative_spec_seed_is_data_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "rng_seed": -1}))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "c.jsonl")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: negative rng_seed")


@pytest.mark.parametrize("change,message", [
    pytest.param({"scales": [1, -1]}, "scales must be positive", id="negative-scale"),
    pytest.param({"scales": [0]}, "scales must be positive", id="zero-scale"),
    *[
        pytest.param(
            {"tables": [{**SPEC["tables"][0], field: value}]},
            "table a: base_tuples, row_bytes and columns must be positive",
            id=f"{field}-{value}",
        )
        for field, value in [("base_tuples", -5), ("base_tuples", 0), ("row_bytes", 0), ("columns", 0)]
    ],
])
def test_gen_on_non_positive_spec_size_is_data_error(tmp_path, capsys, change, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, **change}))
    out = tmp_path / "c.jsonl"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("change,message", [
    pytest.param({"scales": [1e305]}, "table a at scale 1e+305: tuple or page count overflows",
                 id="scale"),
    pytest.param({"noise_sigma": 1e6}, "noise level 1e+06 overflows a float", id="label-noise"),
    pytest.param({"card_sigma": 1e6}, "noise level 1e+06 overflows a float", id="card-noise"),
    pytest.param({"card_bias": 1e305}, "HashJoin cardinality estimate overflows a float",
                 id="card-bias"),
    pytest.param({"tables": [{**SPEC["tables"][0], "base_tuples": 10**309}]},
                 "malformed corpus spec: int too large", id="base-tuples"),
    pytest.param({"templates": {"scan": 1e308, "seek": 1e308}},
                 "template weights sum past the float range", id="template-weights"),
])
def test_gen_on_overflowing_spec_is_data_error(tmp_path, capsys, change, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "templates": {"hash_join": 1.0}, **change}))
    out = tmp_path / "c.jsonl"
    assert main(["gen", "--spec", str(spec), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_train_on_empty_corpus_is_data_error(tmp_path, capsys):
    spec, corpus = tmp_path / "spec.json", tmp_path / "empty.jsonl"
    spec.write_text(json.dumps({**SPEC, "query_count": 0}))
    assert main(["gen", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK
    model = tmp_path / "m.bin"
    assert main(["train", "--corpus", str(corpus), "--out", str(model)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: empty training corpus\n"
    assert not model.exists()


@pytest.mark.parametrize("row,problem", [
    pytest.param("abc,5.0", "CIN1 value 'abc'", id="text"),
    pytest.param("400", "resource value None", id="short-row"),
    pytest.param("nan,5.0", "CIN1 value 'nan'", id="nan"),
    pytest.param("400,inf", "resource value 'inf'", id="inf"),
])
def test_fit_scaling_on_bad_cell_is_data_error(tmp_path, capsys, row, problem):
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text(f"CIN1,resource\n100,1.0\n200,2.1\n{row}\n800,7.9\n")
    assert main(["fit-scaling", "--csv", str(csv_path), "--features", "CIN1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"error: {csv_path} line 4: {problem} is not a finite number\n"


@pytest.mark.parametrize("features,rows", [
    pytest.param("CIN1", ["1e60,1e260", "2e60,3e260"], id="alpha-overflows"),
    pytest.param("CIN1,CIN2", ["1e155,2,1", "2e155,3,2", "3e155,4,3"], id="denominator-overflows"),
])
def test_fit_scaling_on_overflowing_fit_is_data_error(tmp_path, capsys, features, rows):
    # The sum of b*y (first case) or of b*b (second) overflows a float.
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("\n".join([features + ",resource"] + rows) + "\n")
    assert main(["fit-scaling", "--csv", str(csv_path), "--features", features]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: fit overflows: observations too large for a float\n"


def test_fit_scaling_skips_a_power_exponent_that_overflows(tmp_path, capsys):
    # Power with beta = 3 overflows on these rows; the other fits still make
    # a report, and the exact Linear fit is selected.
    csv_path = tmp_path / "obs.csv"
    csv_path.write_text("CIN1,resource\n1e60,1\n2e60,2\n3e60,3\n")
    assert main(["fit-scaling", "--csv", str(csv_path), "--features", "CIN1"]) == EXIT_OK

    def strict(name):
        raise ValueError(f"{name} in fit-scaling output")

    doc = json.loads(capsys.readouterr().out, parse_constant=strict)
    assert [c["kind"] for c in doc["candidates"]] == ["Linear", "NLogN", "Power", "Log"]
    power = doc["candidates"][2]
    assert power["beta"] < 3.0 and power["alpha"] != 0.0
    assert doc["selected"]["kind"] == "Linear"


#: A number from 1e-300 to 9e299.
_MAGNITUDE = st.builds("{}e{}".format, st.integers(1, 9), st.integers(-300, 299))
_ODD_CELL = st.one_of(
    st.just("0"), _MAGNITUDE.map("-{}".format), st.sampled_from(["nan", "inf", "-inf", "", "x1"])
)


@st.composite
def _fit_scaling_csvs(draw):
    """``(features, CSV text)``: one or two feature columns and up to 30 rows.
    Each column's numbers lie within up to 20 decades, often near 1; up to two
    cells are replaced by zero, a negative number, a non-finite number, an
    empty cell or text."""
    features = draw(st.sampled_from(["CIN1", "CIN1,CIN2"]))
    columns = []
    for _ in range(features.count(",") + 2):
        lo = draw(st.one_of(st.integers(-10, 10), st.integers(-300, 299)))
        decades = st.integers(lo, min(299, lo + draw(st.integers(0, 20))))
        columns.append(st.builds("{}e{}".format, st.integers(1, 9), decades))
    rows = [[draw(c) for c in columns] for _ in range(draw(st.integers(0, 30)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        draw(st.sampled_from(rows))[draw(st.integers(0, len(columns) - 1))] = draw(_ODD_CELL)
    return features, "\n".join([features + ",resource"] + [",".join(r) for r in rows]) + "\n"


def test_fit_scaling_on_drawn_csvs_never_fails_internally(tmp_path):
    # Any CSV ends in exit 0, 1 or 2; on exit 0 the report is strict JSON
    # with finite fits.
    import contextlib
    import io
    import math

    def strict(name):
        raise ValueError(f"{name} in fit-scaling output")

    csv_path = tmp_path / "obs.csv"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fit_scaling_csvs())
    def check(drawn):
        features, text = drawn
        csv_path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(out):
            code = main(["fit-scaling", "--csv", str(csv_path), "--features", features])
        assert code in (0, 1, 2)
        if code == EXIT_OK:
            doc = json.loads(out.getvalue(), parse_constant=strict)
            fits = [(c["alpha"], c["sse"]) for c in doc["candidates"]]
            assert all(map(math.isfinite, [x for fit in fits for x in fit] + [doc["selected"]["alpha"]]))

    check()


@pytest.mark.parametrize("flag", ["--model", "--out"])
def test_estimate_with_directory_path_is_data_error(workspace, tmp_path, capsys, flag):
    _, _, corpus, model = workspace
    paths = {"--model": str(model), "--plans": str(corpus), "--out": str(tmp_path / "e.json")}
    paths[flag] = str(tmp_path)
    argv = ["estimate"] + [part for item in paths.items() for part in item]
    assert main(argv) == EXIT_DATA
    assert "Is a directory" in capsys.readouterr().err


def _changed_corpus(corpus, path, section: str, key: str, value) -> str:
    """The corpus file ``corpus`` with ``root[section][key]`` of its first
    HashJoin plan set to ``value``, written to ``path``."""
    docs = [json.loads(line) for line in corpus.read_text().splitlines()]
    next(d["root"] for d in docs if d["root"]["op"] == "HashJoin")[section][key] = value
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return str(path)


@pytest.mark.parametrize("command", ["estimate", "eval", "train"])
def test_plan_whose_feature_overflows_is_data_error(workspace, tmp_path, capsys, command):
    # 1e307 hash operations per tuple is a finite JSON number, but times the
    # build side's cardinality it is past the largest float.
    _, _, corpus, model = workspace
    plans = _changed_corpus(corpus, tmp_path / "plans.jsonl", "cols", "hash_ops_per_tuple", 1e307)
    out = tmp_path / "out"
    argv = {
        "estimate": ["estimate", "--model", str(model), "--plans", plans, "--resource", "io",
                     "--out", str(out)],
        "eval": ["eval", "--model", str(model), "--corpus", plans, "--resource", "io",
                 "--out", str(out)],
        "train": ["train", "--corpus", plans, "--out", str(out), "--iterations", "2"],
    }[command]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: plan q\d+: HashJoin operator: feature HASHOPTOT is not finite \(inf\)\n", err
    )
    assert not list(tmp_path.glob("out*"))


def test_train_drops_a_scale_candidate_whose_per_unit_rows_leave_float32(tmp_path, capsys):
    # A HashAggregate hashing 1e-40 times per tuple has a tiny but positive
    # HASHOPTOT: its raw rows fit float32, but divided by it they do not.
    import math

    from qres.features import FeatureId
    from qres.plan import OperatorType
    from qres.registry import load_registry

    spec, corpus = tmp_path / "spec.json", tmp_path / "corpus.jsonl"
    spec.write_text(json.dumps({
        **SPEC, "templates": {"hash_agg": 1.0, "hash_join": 1.0, "scan": 1.0}, "query_count": 40,
    }))
    assert main(["gen", "--spec", str(spec), "--out", str(corpus)]) == EXIT_OK
    docs = [json.loads(line) for line in corpus.read_text().splitlines()]
    next(d["root"] for d in docs if d["root"]["op"] == "HashAggregate")["cols"]["hash_ops_per_tuple"] = 1e-40
    plans = tmp_path / "plans.jsonl"
    plans.write_text("".join(json.dumps(d) + "\n" for d in docs))

    def hashoptot_models(corpus_path):
        model = tmp_path / "model.bin"
        assert main(["train", "--corpus", str(corpus_path), "--out", str(model),
                     "--iterations", "5"]) == EXIT_OK
        for resource in ("cpu", "io"):
            out = tmp_path / "est.json"
            assert main(["estimate", "--model", str(model), "--plans", str(plans),
                         "--resource", resource, "--out", str(out)]) == EXIT_OK
            assert all(math.isfinite(e["total"]) for e in json.loads(out.read_text()))
        entry = load_registry(str(model)).entry(OperatorType.HashAggregate, "cpu_us")
        return [m for m in entry.models if FeatureId.HASHOPTOT in getattr(m, "scale_feature_ids", [])]

    assert hashoptot_models(corpus)
    assert not hashoptot_models(plans)
    capsys.readouterr()


@pytest.mark.parametrize("section,key", [
    pytest.param("cols", "hash_ops_per_tuple", id="feature"),
    pytest.param("observed", "cpu_us", id="label"),
])
def test_train_on_data_beyond_float32_range_is_data_error(
    workspace, tmp_path, capsys, section, key
):
    # 1e39 fits a float64 but not the float32 numbers of a model file.
    _, _, corpus, _ = workspace
    plans = _changed_corpus(corpus, tmp_path / "plans.jsonl", section, key, 1e39)
    out = tmp_path / "model.bin"
    assert main(["train", "--corpus", plans, "--out", str(out), "--iterations", "2"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "error: HashJoin cpu_us training data beyond the float32 range of model files\n"
    assert not out.exists()


def test_train_on_corpus_lacking_a_resource_fails_before_training(
    workspace, tmp_path, capsys, monkeypatch
):
    from qres import gbrt, registry
    from qres.gbrt import TrainConfig
    from qres.plan import PlanError, load_corpus

    _, _, corpus, _ = workspace
    docs = [json.loads(line) for line in corpus.read_text().splitlines()]
    for doc in docs:
        stack = [doc["root"]]
        while stack:
            node = stack.pop()
            del node["observed"]["logical_io"]
            stack.extend(node.get("children", []))
    plans = tmp_path / "cpu-only.jsonl"
    plans.write_text("".join(json.dumps(d) + "\n" for d in docs))
    trained = []
    monkeypatch.setattr(gbrt, "train_family", trained.append)
    out = tmp_path / "model.bin"
    argv = ["train", "--corpus", str(plans), "--out", str(out), "--resource", "both"]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "error: plan q00000: missing observed label for 'logical_io'\n"
    assert not out.exists()
    with pytest.raises(PlanError, match="missing observed label for 'logical_io'"):
        registry.train_registry(load_corpus(str(plans)), ["cpu_us", "logical_io"], TrainConfig())
    assert trained == []


#: Spec numbers, seven in eight of a usual size; the others are non-positive,
#: any finite float, huge finite numbers up to 1e308 or an integer past the
#: float range.
_SPEC_NUMBER = st.integers(0, 7).flatmap(lambda i: st.one_of(
    st.integers(-2, 0), st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 12).flatmap(lambda d: st.sampled_from([10 ** (308 - d), 10.0 ** (308 - d)])),
    st.just(10 ** 309),
) if i == 0 else st.one_of(st.integers(1, 50_000), st.floats(0.001, 100.0)))
#: Template weights: spec numbers, or 1e308, two of which sum past the float
#: range.
_TEMPLATE_WEIGHT = st.one_of(_SPEC_NUMBER, st.sampled_from([10 ** 308, 10.0 ** 308]))


@st.composite
def _corpus_specs(draw):
    """A corpus spec document: SPEC with its template weights, tables, scales
    and noise settings redrawn, and at most three queries."""
    names = ["scan", "sort_scan", "seek", "hash_agg", "hash_join", "merge_join", "nested_loop"]
    tables = st.fixed_dictionaries({
        "table_id": st.sampled_from(["a", "b"]),
        "base_tuples": _SPEC_NUMBER,
        "row_bytes": _SPEC_NUMBER,
        "columns": _SPEC_NUMBER,
    })
    return {
        "templates": draw(
            st.dictionaries(st.sampled_from(names), _TEMPLATE_WEIGHT, min_size=1, max_size=3)
        ),
        "tables": draw(st.lists(tables, min_size=1, max_size=2)),
        "scales": draw(st.lists(_SPEC_NUMBER, min_size=1, max_size=3)),
        "query_count": draw(st.integers(0, 3)),
        "rng_seed": draw(st.integers(-1, 2**64)),
        **{key: draw(_SPEC_NUMBER) for key in ("noise_sigma", "card_sigma", "card_bias")},
    }


def test_gen_on_drawn_specs_never_fails_internally(tmp_path):
    # Any corpus spec ends in exit 0, 1 or 2, never in an internal error.
    import contextlib
    import io

    spec, out = tmp_path / "spec.json", tmp_path / "c.jsonl"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_corpus_specs())
    def check(doc):
        spec.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = main(["gen", "--spec", str(spec), "--out", str(out)])
        assert code in (0, 1, 2)

    check()


#: Values of other types; each draw builds a new list or object, so that a
#: later mutation cannot reach a value shared with another field.
_SWAPPED = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.builds(list), st.builds(dict),
    st.builds(lambda: [1.0]), st.builds(lambda: {"a": 1}),
)
#: Integers and floats from 1e295 to 1e307: finite, but a product of two
#: plan fields of this size, or of one and a cardinality, overflows a float.
_HUGE = st.integers(0, 12).flatmap(lambda d: st.sampled_from([10 ** (307 - d), 10.0 ** (307 - d)]))


def _fields(doc, out):
    """``(object, key)`` of every field of every JSON object in ``doc``."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            out.append((doc, key))
            _fields(doc[key], out)
    elif isinstance(doc, list):
        for value in doc:
            _fields(value, out)
    return out


@st.composite
def _mutated_plans(draw, docs):
    """A valid plan document with one to three fields deleted, given a value
    of another type, or, for a number, given a huge finite number or negated.
    Returns the document and the ``(object, key, value)`` of every number
    made negative."""
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    negated = []
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["huge", "swap", "delete", "negate"]))
        fields = [
            (target, key) for target, key in _fields(doc, [])
            if how in ("swap", "delete") or type(target[key]) in (int, float)
        ]
        if not fields:
            continue
        target, key = draw(st.sampled_from(fields))
        if how == "delete":
            del target[key]
        elif how == "negate":
            target[key] = -target[key]
            if target[key] < 0:
                negated.append((target, key, target[key]))
        else:
            target[key] = draw(_SWAPPED if how == "swap" else _HUGE)
    return doc, negated


def test_estimate_on_mutated_plans_never_fails_internally(workspace):
    # Bad plan input ends in exit 0, 1 or 2, never in an internal error, and
    # a plan estimated with exit 0 has finite features and a finite estimate.
    # Every number of a plan file is a count, size, cost, label or scale, so
    # a negative one that is still in the document ends in exit 2.
    import contextlib
    import io
    import math

    from qres.features import featurize
    from qres.plan import load_corpus

    root, _, corpus, model = workspace
    docs = [json.loads(line) for line in corpus.read_text().splitlines()[:6]]
    plans, out = root / "mutated.jsonl", root / "mutated-est.json"

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        _mutated_plans(docs), st.sampled_from(["cpu", "io"]), st.sampled_from(["true", "estimated"])
    )
    def check(mutated, resource, source):
        doc, negated = mutated
        plans.write_text(json.dumps(doc) + "\n")
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["estimate", "--model", str(model), "--plans", str(plans),
                         "--resource", resource, "--source", source, "--out", str(out)])
        assert code in (0, 1, 2)
        reachable = {id(target) for target, _ in _fields(doc, [])}
        if any(id(target) in reachable and target.get(key) == value
               for target, key, value in negated):
            assert code == EXIT_DATA
        if code == EXIT_OK:
            for plan in load_corpus(str(plans)):
                values = [v for _, fv in featurize(plan.root, source) for v in fv.values.values()]
                assert all(map(math.isfinite, values))
            assert all(math.isfinite(e["total"]) for e in json.loads(out.read_text()))

    check()


def _tree_fields(blob: bytes) -> tuple[list[int], list[int]]:
    """Offsets, in a model file, of every model's u16 tree count and of every
    tree's node-count byte: a walk of the format independent of the decoder."""
    import struct

    counts, sizes = [], []
    pos = 7  # magic, version, u16 entry count
    for _ in range(struct.unpack_from("<H", blob, 5)[0]):
        n_models = struct.unpack_from("<H", blob, pos + 4)[0]
        pos += 6  # operator, resource, u16 default, u16 model count
        for _ in range(n_models):
            kind = blob[pos]
            pos += 9  # kind, f32 init, f32 learning rate
            pos += 1 + 9 * blob[pos]  # schema codes and their f32 ranges
            counts.append(pos)
            n_trees = struct.unpack_from("<H", blob, pos)[0]
            pos += 2
            for _ in range(n_trees):
                sizes.append(pos)
                pos += 1 + 6 * blob[pos]
            if kind == 1:
                n_terms = blob[pos]
                pos += 1
                for _ in range(n_terms):
                    pos += 5  # form kind, f32 beta
                    pos += 1 + blob[pos]
    assert pos == len(blob)
    return counts, sizes


@st.composite
def _corrupt_models(draw, blob: bytes):
    """``blob`` truncated, with bytes overwritten, inserted or deleted, with a
    tree's node count set to 0, 1 or 255, or with a model's tree count
    altered."""
    import struct

    counts, sizes = _tree_fields(blob)
    data = bytearray(blob)
    offset = st.sampled_from(range(len(data)))  # uniform over the file
    how = draw(st.sampled_from(["truncate", "overwrite", "insert", "delete", "tree size", "tree count"]))
    if how == "truncate":
        del data[draw(offset) :]
    elif how == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(offset)] = draw(st.integers(0, 255))
    elif how == "insert":
        at = draw(offset)
        data[at:at] = draw(st.binary(min_size=1, max_size=8))
    elif how == "delete":
        at = draw(offset)
        del data[at : at + draw(st.integers(1, 8))]
    elif how == "tree size":
        data[draw(st.sampled_from(sizes))] = draw(st.sampled_from([0, 1, 255]))
    else:
        at = draw(st.sampled_from(counts))
        delta = draw(st.one_of(st.sampled_from([1, 0xFFFF]), st.integers(1, 0xFFFF)))
        n = struct.unpack_from("<H", data, at)[0]
        struct.pack_into("<H", data, at, (n + delta) % 0x10000)
    return bytes(data)


def test_estimate_on_corrupt_model_never_fails_internally(workspace):
    # A corrupt model file ends in exit 0 or 2; on exit 0 every total is
    # finite and non-negative.
    import contextlib
    import io
    import math

    root, spec, corpus, _ = workspace
    model, bad = root / "small.bin", root / "corrupt.bin"
    far_spec, far = root / "far-spec.json", root / "far.jsonl"
    plans, out = root / "corrupt-plans.jsonl", root / "corrupt-est.json"
    assert main([
        "train", "--corpus", str(corpus), "--out", str(model), "--iterations", "3", "--seed", "0",
    ]) == EXIT_OK
    # In-range plans pick default models; far larger ones score every model.
    far_spec.write_text(json.dumps({**SPEC, "scales": [32], "query_count": 6, "rng_seed": 12}))
    assert main(["gen", "--spec", str(far_spec), "--out", str(far)]) == EXIT_OK
    plans.write_text("".join(corpus.read_text().splitlines(True)[:6]) + far.read_text())
    blob = model.read_bytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_corrupt_models(blob), st.sampled_from(["cpu", "io"]))
    def check(data, resource):
        bad.write_bytes(data)
        out.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            code = main(["estimate", "--model", str(bad), "--plans", str(plans),
                         "--resource", resource, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_DATA)
        if code == EXIT_OK:
            totals = [e["total"] for e in json.loads(out.read_text())]
            assert len(totals) == 12
            assert all(math.isfinite(t) and t >= 0.0 for t in totals)

    check()


#: Operators with one child.
_UNARY_OPS = ["Filter", "Sort", "HashAggregate", "StreamAggregate", "ComputeScalar"]


@pytest.mark.parametrize("command", ["estimate", "eval", "train"])
def test_plan_wrapped_in_too_many_unary_operators_is_data_error(workspace, command):
    # A valid plan under a chain of more unary operators than MAX_PLAN_DEPTH
    # allows, among valid plans: exit 2 naming the depth, never exit 3 or a
    # RecursionError, however deep the chain.
    import contextlib
    import io

    from qres.plan import MAX_PLAN_DEPTH

    root, _, corpus, model = workspace
    lines = corpus.read_text().splitlines()[:4]
    plans, out = root / f"deep-{command}.jsonl", root / f"deep-{command}.out"
    argv = {
        "estimate": ["estimate", "--model", str(model), "--plans", str(plans), "--out", str(out)],
        "eval": ["eval", "--model", str(model), "--corpus", str(plans)],
        "train": ["train", "--corpus", str(plans), "--out", str(out), "--iterations", "2"],
    }[command]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(lines),
        st.lists(st.sampled_from(_UNARY_OPS), min_size=1, max_size=4),
        st.one_of(st.integers(MAX_PLAN_DEPTH, MAX_PLAN_DEPTH + 8), st.integers(MAX_PLAN_DEPTH, 20_000)),
        st.integers(0, len(lines)),
    )
    def check(line, ops, depth, at):
        doc = json.loads(line)
        head = "".join(
            f'{{"op":"{ops[i % len(ops)]}","card_true":10,"card_est":10,"children":['
            for i in range(depth)
        )
        root_doc = head + json.dumps(doc["root"]) + "]}" * depth
        deep = json.dumps({**doc, "query_id": "deep", "root": None}).replace(
            '"root": null', '"root": ' + root_doc
        )
        plans.write_text("\n".join(lines[:at] + [deep] + lines[at:]) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == EXIT_DATA
        assert "nested too deeply" in err.getvalue()

    check()
