"""Spans around the program's public functions, recorded from outside.

Each traced function is replaced, for the length of a traced step, at every
name in ``qres`` that refers to it: ``registry`` looks up ``select_form`` and
``extract_features`` in its own namespace, and ``cli`` looks up
``train_registry`` and ``load_corpus`` in its own, so patching only the
defining module would miss those calls. A span records its name, start, end
and parent span; spans stay in memory and are summarised when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field

#: ``(module, attribute path)`` of every traced function. Besides the
#: functions the per-layer metrics name, ``estimate_query``,
#: ``train_registry``, ``save_registry``, ``load_registry`` and the CLI
#: commands are traced so that every span has the caller it had in the
#: program as its parent.
TARGETS = (
    ("qres.synth", "generate_corpus"),
    ("qres.plan", "load_corpus"),
    ("qres.plan", "decompose_pipelines"),
    ("qres.features", "extract_features"),
    ("qres.registry", "collect_examples"),
    ("qres.registry", "train_registry"),
    ("qres.registry", "train_entry"),
    ("qres.registry", "estimate_query"),
    ("qres.registry", "select_model"),
    ("qres.registry", "model_out_ratios"),
    ("qres.registry", "save_registry"),
    ("qres.registry", "load_registry"),
    ("qres.registry", "serialize"),
    ("qres.registry", "deserialize"),
    ("qres.gbrt", "train"),
    ("qres.gbrt", "predict"),
    ("qres.gbrt", "MartModel.layout"),
    ("qres.scaling", "select_form"),
    ("qres.evalkit", "compare"),
    ("qres.estimators", "train_linear_estimator"),
    ("qres.estimators", "train_opt_estimator"),
    ("qres.cli", "cmd_train"),
    ("qres.cli", "cmd_estimate"),
    ("qres.cli", "cmd_eval"),
)


def span_name(module: str, path: str) -> str:
    return f"{module.removeprefix('qres.')}.{path}"


NAMES = tuple(span_name(m, p) for m, p in TARGETS)
NO_SPAN = -1


@dataclass
class Spans:
    """Flat span records: ``name[i]`` indexes :data:`NAMES`, ``parent[i]`` is
    a span index or :data:`NO_SPAN`."""

    name: array = field(default_factory=lambda: array("h"))
    parent: array = field(default_factory=lambda: array("l"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.name)

    def rows(self, lo: int, hi: int) -> list[list]:
        return [
            [NAMES[self.name[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(lo, hi)
        ]


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # Time inside direct children, by child name.
    child_s: dict[str, float] = field(default_factory=dict)


def summarise(spans: Spans, lo: int, hi: int) -> dict[str, LayerStats]:
    """Per-name calls, inclusive time and self time of spans ``lo:hi``.

    A span's self time is its duration minus the durations of its direct
    traced children. A child is recorded after its parent, so one pass from
    the last span back sees every child before its parent.
    """
    stats = {n: LayerStats() for n in NAMES}
    child_time: dict[int, float] = {}
    for i in range(hi - 1, lo - 1, -1):
        dur = spans.end[i] - spans.start[i]
        st = stats[NAMES[spans.name[i]]]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_time.pop(i, 0.0)
        p = spans.parent[i]
        if p >= lo:
            child_time[p] = child_time.get(p, 0.0) + dur
            pst = stats[NAMES[spans.name[p]]]
            cname = NAMES[spans.name[i]]
            pst.child_s[cname] = pst.child_s.get(cname, 0.0) + dur
    return stats


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self.spans = Spans()
        self._stack = [NO_SPAN]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans.name)
            spans.name.append(name_id)
            spans.parent.append(stack[-1])
            spans.start.append(0.0)
            spans.end.append(0.0)
            stack.append(idx)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                spans.start[idx] = t
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "qres" or k.startswith("qres.")]
        for name_id, (mod_name, path) in enumerate(TARGETS):
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name_id, original)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()
