"""Command-line front end: gen | train | estimate | eval | fit-scaling | inspect."""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence

from . import estimators, evalkit, registry as reg, scaling, synth
from .features import FeatureError, FeatureId, featurize_many
from .gbrt import TrainConfig, TrainingError
from .plan import PlanError, load_corpus, save_corpus
from .registry import RegistryError, load_registry, save_registry, train_registry
from .synth import SynthError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_RESOURCE_FLAG = {"cpu": "cpu_us", "io": "logical_io"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, not {text}")
    return int(text)


def feature_names(text: str) -> list[FeatureId]:
    """A ``--features`` value: one or two distinct comma-separated feature
    names, as their members."""
    names = [name.strip() for name in text.split(",")]
    if len(names) > 2 or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"one or two distinct feature names, not {text}")
    for name in names:
        if name not in FeatureId.__members__:
            raise argparse.ArgumentTypeError(f"unknown feature name {name!r}")
    return [FeatureId[name] for name in names]


def _resources(flag: str) -> list[str]:
    if flag == "both":
        return list(reg.RESOURCES)
    return [_RESOURCE_FLAG[flag]]


def cmd_gen(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = synth.spec_from_json(fh.read())
    if args.seed is not None:
        spec.rng_seed = args.seed
    corpus = synth.generate_corpus(spec)
    count = save_corpus(corpus, args.out)
    print(f"wrote {count} plans to {args.out} (seed {spec.rng_seed})")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    cfg = TrainConfig(
        iterations=args.iterations,
        max_leaves=args.max_leaves,
        learning_rate=args.learning_rate,
        subsample_fraction=args.subsample,
        rng_seed=args.seed if args.seed is not None else 0,
    )
    try:
        cfg.validate()
    except TrainingError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def cmd_train(args) -> int:
    cfg = _train_config(args)
    plans = load_corpus(args.corpus)
    if not plans:
        raise RegistryError("empty training corpus")
    registry = train_registry(plans, _resources(args.resource), cfg, source=args.source)
    save_registry(registry, args.out)
    print(f"trained {len(registry.entries)} operator/resource entries -> {args.out}")
    for (op, resource), entry in sorted(
        registry.entries.items(), key=lambda kv: (int(kv[0][0]), kv[0][1])
    ):
        print(
            f"  {op.name:<16} {resource:<10} models={len(entry.models)} "
            f"default=#{entry.default_idx} train_rmse={entry.train_rmse:.3f}"
        )
    return EXIT_OK


_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """``value`` as ``json.dumps`` writes a float."""
    text = float.__repr__(value)
    return _JSON_SPECIAL.get(text, text)


def _json_list(items: list[str], indent: str) -> str:
    """A list whose items are already indented text, closed at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def estimates_json(pairs: Iterable[tuple[str, reg.QueryEstimate]]) -> str:
    """``json.dumps(docs, indent=2, sort_keys=True)`` of one document per
    ``(query_id, estimate)`` pair, formatted directly: each document holds
    ``per_operator`` (``{"estimate", "op"}`` objects), ``per_pipeline``,
    ``query_id`` and ``total``."""
    num, text = _json_float, encode_basestring_ascii
    docs = []
    for query_id, est in pairs:
        ops = [
            f'      {{\n        "estimate": {num(value)},\n        "op": {text(name)}\n      }}'
            for name, value in est.per_operator
        ]
        pipes = [f"      {num(value)}" for value in est.per_pipeline]
        docs.append(
            f'  {{\n    "per_operator": {_json_list(ops, "    ")},\n'
            f'    "per_pipeline": {_json_list(pipes, "    ")},\n'
            f'    "query_id": {text(query_id)},\n    "total": {num(est.total)}\n  }}'
        )
    return _json_list(docs, "")


def cmd_estimate(args) -> int:
    registry = load_registry(args.model)
    plans = load_corpus(args.plans)
    resource = _RESOURCE_FLAG[args.resource]
    estimates = reg.estimate_batch(registry, featurize_many(plans, args.source), resource)
    text = estimates_json((plan.query_id, est) for plan, est in zip(plans, estimates))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_eval(args) -> int:
    registry = load_registry(args.model)
    test = load_corpus(args.corpus)
    if not test:
        raise RegistryError("empty test corpus")
    resource = _RESOURCE_FLAG[args.resource]
    table: dict[str, evalkit.EstimatorFn] = {
        "SCALING": estimators.scaling_estimator(registry, resource),
        "MART": estimators.mart_estimator(registry, resource),
    }
    if args.baselines:
        if not args.train_corpus:
            raise UsageError("--baselines requires --train-corpus")
        train = load_corpus(args.train_corpus)
        if not train:
            raise RegistryError("empty training corpus")
        table["LINEAR"] = estimators.train_linear_estimator(
            train, resource, args.source, seed=args.seed or 0
        )
        table["OPT"] = estimators.train_opt_estimator(train, resource)
    reports = evalkit.compare(table, test, resource, args.source)
    csv_text = evalkit.report_csv(reports)
    json_text = evalkit.report_json(reports)
    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(json_text + "\n")
    print(csv_text, end="")
    return EXIT_OK


def _csv_number(row: dict, name: str, where: str, positive: bool) -> float:
    """Cell ``name`` of a CSV row as a finite float, above 0 if ``positive``;
    any other cell raises ScalingError."""
    try:
        value = float(row[name])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise scaling.ScalingError(f"{where}: {name} value {row[name]!r} is not a finite number")
    if positive and value <= 0:
        raise scaling.ScalingError(f"{where}: {name} value {row[name]!r} must be positive")
    return value


def cmd_fit_scaling(args) -> int:
    observations = []
    with open(args.csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for name in [f.name for f in args.features] + [args.resource_column]:
            if name not in (reader.fieldnames or ()):
                raise scaling.ScalingError(f"{args.csv}: no {name!r} column in the header")
        for row in reader:
            where = f"{args.csv} line {reader.line_num}"
            xs = [_csv_number(row, f.name, where, positive=True) for f in args.features]
            observations.append((xs, _csv_number(row, args.resource_column, where, positive=False)))
    if len(args.features) == 1:
        candidates = scaling.SINGLE_FEATURE_CANDIDATES
    else:
        candidates = scaling.TWO_FEATURE_CANDIDATES
    fitted = scaling.fit_candidates(candidates, args.features, observations)
    report = [
        {
            "kind": form.kind.name,
            "features": [f.name for f in form.features],
            "alpha": form.alpha,
            "beta": form.beta,
            "sse": sse,
        }
        for form, sse in fitted
    ]
    best = scaling.best_form(fitted)
    doc = {
        "candidates": report,
        "selected": {
            "kind": best.kind.name,
            "features": [f.name for f in best.features],
            "alpha": best.alpha,
            "beta": best.beta,
        },
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _tree_to_dict(tree) -> dict:
    return {
        "child_offsets": [int(c) for c in tree.child],
        "features": [
            FeatureId(int(f)).name if c != 0 else None
            for c, f in zip(tree.child, tree.feature)
        ],
        "values": [float(v) for v in tree.value],
    }


def _mart_to_dict(model, with_trees: bool, transform: str = "identity") -> dict:
    doc = {
        "init": model.init,
        "learning_rate": model.learning_rate,
        "schema": [f.name for f in model.schema],
        "feature_stats": {
            f.name: {"low": lo, "high": hi} for f, (lo, hi) in model.feature_stats.items()
        },
        "n_trees": len(model.trees),
        "target_transform": transform,
    }
    if with_trees:
        doc["trees"] = [_tree_to_dict(t) for t in model.trees]
    return doc


def cmd_inspect(args) -> int:
    registry = load_registry(args.model)
    doc = []
    for (op, resource), entry in sorted(
        registry.entries.items(), key=lambda kv: (int(kv[0][0]), kv[0][1])
    ):
        models = []
        for model in entry.models:
            if isinstance(model, reg.CombinedModel):
                label = reg.model_label(model).removeprefix("combined:")
                models.append(
                    {
                        "kind": "combined",
                        "scale_terms": [
                            {
                                "form": t.kind.name,
                                "features": [f.name for f in t.features],
                                "beta": t.beta,
                            }
                            for t in model.terms
                        ],
                        "scaled_model": _mart_to_dict(
                            model.scaled_model, args.trees, f"per-unit:{label}"
                        ),
                    }
                )
            else:
                models.append({"kind": "mart", **_mart_to_dict(model, args.trees)})
        doc.append(
            {
                "operator": op.name,
                "resource": resource,
                "default_index": entry.default_idx,
                "models": models,
            }
        )
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qres", description="Plan-level resource estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen")
    p.add_argument("--spec", required=True, help="corpus spec JSON file")
    p.add_argument("--out", required=True, help="output corpus path (line-delimited)")
    p.add_argument("--seed", type=seed, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--resource", choices=["cpu", "io", "both"], default="both")
    p.add_argument("--source", choices=["true", "estimated"], default="true")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--max-leaves", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--subsample", type=float, default=0.5)
    p.add_argument("--seed", type=seed, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate")
    p.add_argument("--model", required=True)
    p.add_argument("--plans", required=True)
    p.add_argument("--resource", choices=["cpu", "io"], default="cpu")
    p.add_argument("--source", choices=["true", "estimated"], default="true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True, help="labeled test corpus")
    p.add_argument("--resource", choices=["cpu", "io"], default="cpu")
    p.add_argument("--source", choices=["true", "estimated"], default="true")
    p.add_argument("--baselines", action="store_true")
    p.add_argument("--train-corpus", default=None, help="training corpus for baselines")
    p.add_argument("--seed", type=seed, default=None)
    p.add_argument("--out", default=None, help="report path prefix (.csv/.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fit-scaling")
    p.add_argument("--csv", required=True, help="observation CSV")
    p.add_argument("--features", type=feature_names, required=True,
                   help="1-2 distinct feature columns, comma-separated")
    p.add_argument("--resource-column", default="resource")
    p.set_defaults(func=cmd_fit_scaling)

    p = sub.add_parser("inspect")
    p.add_argument("--model", required=True)
    p.add_argument("--trees", action="store_true", help="include full tree structures")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PlanError, SynthError, RegistryError, FeatureError, scaling.ScalingError,
            evalkit.EvalError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
