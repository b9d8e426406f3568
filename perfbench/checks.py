"""Output checks computed apart from the program.

Nothing here calls the program's prediction, pipeline or metric code: tree
ensembles are walked node by node in float64, scaling terms are evaluated
from their documented closed forms, and observed totals are summed from the
corpus JSON itself.
"""
from __future__ import annotations

import json
import math
from typing import Iterable, Sequence


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own result."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Tree ensembles


def walk_tree(child, feature, value, x: dict[int, float]) -> float:
    """Leaf value reached by ``x`` (feature code -> value) in one packed
    pre-order tree: left (node + 1) when ``x[feature] <= threshold``, right
    (node + child offset) otherwise; offset 0 marks a leaf."""
    node = 0
    while int(child[node]) != 0:
        if x[int(feature[node])] <= float(value[node]):
            node += 1
        else:
            node += int(child[node])
    return float(value[node])


def walk_ensemble(init: float, learning_rate: float, trees, x: dict[int, float]) -> tuple[float, float]:
    """``(prediction, magnitude)``: ``init`` plus the float64 sum, in tree
    order, of ``learning_rate * leaf`` over ``trees``; ``magnitude`` is
    ``|init|`` plus the sum of the terms' absolute values."""
    total = 0.0
    magnitude = abs(init)
    for tree in trees:
        term = learning_rate * walk_tree(tree.child, tree.feature, tree.value, x)
        total += term
        magnitude += abs(term)
    return init + total, magnitude


def _lg(v: float) -> float:
    return 1.0 if v < 2.0 else math.log2(v)


#: Scaling bases with alpha = 1, keyed by ``FormKind`` name.
BASES = {
    "Linear": lambda v, beta: v[0],
    "NLogN": lambda v, beta: v[0] * _lg(v[0]),
    "Power": lambda v, beta: v[0] ** beta,
    "Log": lambda v, beta: _lg(v[0]),
    "Product2": lambda v, beta: v[0] * v[1],
    "Sum2": lambda v, beta: v[0] + v[1],
    "FLogSecond": lambda v, beta: v[0] * _lg(v[1]),
}


def scaling_term(terms, raw: dict) -> float:
    """Product of the combined model's scaling terms on raw feature values."""
    g = 1.0
    for term in terms:
        g *= BASES[term.kind.name]([float(raw[f]) for f in term.features], term.beta)
    return g


def close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    """``|a - b| <= rel * max(|a|, |b|, scale)``."""
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


# ---------------------------------------------------------------------------
# Query-level error


def l1_err(pairs: Iterable[tuple[float, float]]) -> float:
    """The paper's relative L1 error over ``(estimate, truth)`` pairs: the
    mean of ``|estimate - truth| / estimate``. Pairs with a non-positive
    estimate or truth are left out, as the evaluation does."""
    kept = [(e, t) for e, t in pairs if e > 0.0 and t > 0.0]
    require(bool(kept), "no evaluable (estimate, truth) pairs")
    return sum(abs(e - t) / e for e, t in kept) / len(kept)


def within_2x_share(pairs: Iterable[tuple[float, float]]) -> float:
    """Share of pairs whose estimate is positive and within a factor 2 of the truth."""
    pairs = list(pairs)
    ok = sum(1 for e, t in pairs if e > 0.0 and t > 0.0 and max(e / t, t / e) <= 2.0)
    return ok / len(pairs)


def observed_totals(corpus_path: str, resource: str) -> dict[str, float]:
    """Per query id, the sum of the ``observed`` labels of every node, read
    from the JSONL corpus with an explicit stack."""
    out: dict[str, float] = {}
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            total = 0.0
            stack = [doc["root"]]
            while stack:
                node = stack.pop()
                total += float(node["observed"][resource])
                stack.extend(node.get("children", []))
            out[str(doc["query_id"])] = total
    return out


# ---------------------------------------------------------------------------
# Estimate documents


def check_estimate_doc(doc: dict) -> None:
    """One per-plan estimate: finite, non-negative, and the total equal to the
    sum of its pipelines and to the sum of its operators."""
    total = doc["total"]
    pipelines = doc["per_pipeline"]
    operators = [op["estimate"] for op in doc["per_operator"]]
    qid = doc["query_id"]
    for v in [total, *pipelines, *operators]:
        require(math.isfinite(v) and v >= 0.0, f"{qid}: estimate {v!r} not finite and >= 0")
    require(total == sum(pipelines), f"{qid}: total {total!r} != sum of pipelines")
    require(
        close(total, math.fsum(operators), 1e-12),
        f"{qid}: total {total!r} != sum of operators {math.fsum(operators)!r}",
    )


def estimate_doc(query_id: str, est) -> dict:
    """The ``qres estimate`` JSON shape of one in-process ``QueryEstimate``."""
    return {
        "query_id": query_id,
        "total": est.total,
        "per_pipeline": list(est.per_pipeline),
        "per_operator": [{"op": n, "estimate": v} for n, v in est.per_operator],
    }


def same_estimates(cli_docs: Sequence[dict], lib_docs: Sequence[dict], what: str) -> None:
    """The CLI's output equals the library's estimates exactly."""
    require(len(cli_docs) == len(lib_docs), f"{what}: {len(cli_docs)} != {len(lib_docs)} plans")
    for a, b in zip(cli_docs, lib_docs):
        require(a == b, f"{what}: plan {b['query_id']} differs: {a} != {b}")
