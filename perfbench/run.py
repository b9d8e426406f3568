#!/usr/bin/env python3
"""The qres benchmark: one workload per run, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate-extrap --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
A summary for people goes to standard error. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# An ``estimate-inrange`` workload (the estimate steps on in-range plans
# against a set-up model) was dropped: it repeated the estimate steps of
# ``train``, whose held-out plans are in range, and three workloads left
# room for 30 s runs only, whose ten-run quartile spreads reached 0.24.
WORKLOADS = ("train", "estimate-extrap")

#: End-to-end metrics and their units, as in BENCHMARK.json.
E2E_METRICS = {
    "setup_s": "s",
    "train_s": "s",
    "model_bytes": "bytes",
    "load_s": "s",
    "estimate_p50_us": "us",
    "estimate_p99_us": "us",
    "cli_estimate_plans_per_s": "1/s",
    "eval_s": "s",
    "cpu_l1_err": "ratio",
    "io_l1_err": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units, as in BENCHMARK.json. ``<span>.calls``
#: counts calls, ``<span>.s`` is inclusive time, ``<span>.self_s`` excludes
#: traced children.
LAYER_METRICS = {
    "synth.generate_corpus.s": "s",
    "plan.load_corpus.s": "s",
    "plan.decompose_pipelines.self_s": "s",
    "features.extract_features.calls": "count",
    "features.extract_features.self_s": "s",
    "registry.collect_examples.calls": "count",
    "registry.train_entry.self_s": "s",
    "registry.select_model.calls": "count",
    "registry.select_model.self_s": "s",
    "registry.model_out_ratios.calls": "count",
    "registry.serialize.s": "s",
    "registry.deserialize.s": "s",
    "gbrt.train.self_s": "s",
    "gbrt.predict.calls": "count",
    "gbrt.predict.self_s": "s",
    "gbrt.MartModel.layout.self_s": "s",
    "scaling.select_form.self_s": "s",
    "evalkit.compare.self_s": "s",
    "estimators.train_linear_estimator.self_s": "s",
    "estimators.train_opt_estimator.self_s": "s",
    "cli.cmd_train.report_s": "s",
    "cli.cmd_estimate.self_s": "s",
    "trace.overhead_pct": "%",
}

# ---------------------------------------------------------------------------
# Inputs. Every plan file holds the same number of plans of each of the nine
# templates, so every seed gives the same operator mix and the same work.
# The training corpus and the training seed are constants: every run trains
# the same model, and the seed draws the held-out plans. A model trained on
# another corpus picks other scaling forms, which moved extrapolation L1 by
# up to 2x between seeds; with one model the L1 of 1,440 held-out plans moves
# by about 5 %.

TEMPLATES = (
    "filter_scan", "hash_agg", "hash_join", "merge_join", "nested_loop",
    "scan", "seek", "sort_filter_scan", "sort_scan",
)
#: Operator types the templates produce, times two resources.
EXPECTED_ENTRIES = 16
TRAIN_SCALES = (1.0, 2.0, 3.0, 4.0)
EXTRAP_SCALES = (16.0, 32.0, 64.0)
TRAIN_PER_TEMPLATE = 20      # 180 training plans
TRAIN_SEED = 0
TEST_PER_TEMPLATE = 160      # 1,440 held-out plans per workload
ITERATIONS = 40
MAX_LEAVES = 10
NOISE_SIGMA = 0.05
CARD_SIGMA = 0.1
RESOURCES = ("cpu_us", "logical_io")
RESOURCE_FLAG = {"cpu_us": "cpu", "logical_io": "io"}

SETUPS = 5
MIN_ROUNDS = 2
#: Per-plan estimates that share one speed factor.
LATENCY_BATCH = 120
#: Cold loads per round; each is one ``load_s`` sample.
LOADS_PER_ROUND = 3
#: Spans of the first traced round written to the trace file.
TRACE_ROWS = 20_000
#: Every WALK_EVERY-th plan of each round is checked by the independent walk.
WALK_EVERY = 24

# Paper properties, with margins measured across seeds (README.md).
MIN_WITHIN_2X = 0.90          # in-range: SCALING within 2x on >= 90% of queries
MAX_SCALING_OVER_MART = 0.5   # extrapolation: SCALING L1 / MART L1 (cpu)
MIN_DEFAULT_SHARE = 0.90      # in-range: share of picks that are the default
MIN_MODELS_PER_PICK = 2.5     # extrapolation: models scored per pick


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_qres() -> None:
    """Import qres from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qres", "__init__.py")):
        die(f"no qres sources under {SRC}; run from the root of a qres checkout")
    sys.path.insert(0, SRC)
    import qres

    if not os.path.abspath(qres.__file__).startswith(SRC + os.sep):
        die(f"imported qres from {qres.__file__}, not from {SRC}")


def make_plans(synth, seed: int, role: str, scales, per_template: int) -> list:
    """``per_template`` plans of every template, seeded by (seed, role, template)."""
    plans = []
    for template in TEMPLATES:
        spec = synth.CorpusSpec(
            templates={template: 1.0},
            tables=synth.default_tables(),
            scales=list(scales),
            query_count=per_template,
            rng_seed=zlib.crc32(f"{seed}/{role}/{template}".encode()),
            noise_sigma=NOISE_SIGMA,
            card_sigma=CARD_SIGMA,
        )
        for j, plan in enumerate(synth.generate_corpus(spec)):
            plan.query_id = f"{role}-{template}-{j:03d}"
            plans.append(plan)
    return plans


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Bench:
    """One run of one workload; see README.md for what each step measures.

    Timed steps are recorded as ``(key, block, start, end, work seconds)``,
    where a block is one set-up or one round; raw times become nominal ones
    (see ``refclock``) once the run is over and the reference samples around
    every step are known.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: str):
        from qres import cli, features, plan, registry, synth
        from qres.gbrt import TrainConfig

        import checks
        import refclock
        import tracing

        self.cli, self.features, self.plan, self.registry, self.synth = cli, features, plan, registry, synth
        self.TrainConfig = TrainConfig
        self.checks, self.tracing = checks, tracing
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.train_path = os.path.join(work, "train.jsonl")
        self.plans_path = os.path.join(work, "plans.jsonl")
        self.model_path = os.path.join(work, "model.bin")
        self.sampler = refclock.SpeedSampler()
        self.tracer = tracing.Tracer() if trace else None
        self.steps: list[tuple[str, int, float, float, float]] = []
        # (block, start, end, per-call work seconds) of each latency batch.
        self.batches: list[tuple[int, float, float, list[float]]] = []
        # (kind, traced, per-layer summary or None) of each block.
        self.blocks: list[tuple[str, bool, object]] = []
        self.untimed: dict[str, list[float]] = {"cpu_l1_err": [], "io_l1_err": [], "model_bytes": []}
        self.n_plans = 0
        self.attempted = 0
        self.failed = 0
        self.trace_rows: list = []
        self.shape_checked = False
        self.truth: dict[str, dict[str, float]] = {}
        self.errors: list[str] = []

    # -- helpers -------------------------------------------------------------

    def cli_main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def timed(self, key: str, fn, *args):
        """Run one step of the current block and record its time under ``key``."""
        start = self.sampler.stamp()
        out = fn(*args)
        end = self.sampler.stamp()
        self.steps.append((key, len(self.blocks), start[0], end[0], self.sampler.work_s(start, end)))
        return out

    @contextlib.contextmanager
    def block(self, kind: str, traced: bool):
        """One set-up or round; traced blocks record spans around its steps."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            lo = len(tracer.spans)
            tracer.install()
        try:
            yield
        finally:
            if tracer is not None:
                tracer.uninstall()
        stats = None
        if tracer is not None:
            hi = len(tracer.spans)
            stats = self.tracing.summarise(tracer.spans, lo, hi)
            if not self.trace_rows and kind == "round":
                self.trace_rows = tracer.spans.rows(lo, min(hi, lo + TRACE_ROWS))
        self.blocks.append((kind, traced, stats))

    def train_cli(self) -> bool:
        """``qres train`` on the training corpus; a non-zero exit fails its
        16 entries and is recorded as a failed check."""
        argv = [
            "train", "--corpus", self.train_path, "--out", self.model_path,
            "--iterations", str(ITERATIONS), "--max-leaves", str(MAX_LEAVES),
            "--seed", str(TRAIN_SEED),
        ]
        rc = self.timed("train_s", self.cli_main, argv)
        if rc != 0:
            self.failed += EXPECTED_ENTRIES
            self.errors.append(f"qres train exited {rc}")
        return rc == 0

    def cold_load(self):
        reg = self.registry.load_registry(self.model_path)
        for entry in reg.entries.values():
            for model in entry.models:
                mart = model.scaled_model if isinstance(model, self.registry.CombinedModel) else model
                mart.layout()
        return reg

    # -- set-up ----------------------------------------------------------------

    def setup_once(self) -> bytes | None:
        """Make and write the inputs; in the estimate workloads also train the
        model. Returns the model bytes when a model was trained."""
        synth, plan = self.synth, self.plan

        def inputs():
            train = make_plans(synth, TRAIN_SEED, "train", TRAIN_SCALES, TRAIN_PER_TEMPLATE)
            scales = EXTRAP_SCALES if self.workload == "estimate-extrap" else TRAIN_SCALES
            held = make_plans(synth, self.seed, "test", scales, TEST_PER_TEMPLATE)
            plan.save_corpus(train, self.train_path)
            plan.save_corpus(held, self.plans_path)

        with self.block("setup", self.trace):
            self.timed("inputs", inputs)
            trained = self.workload == "train" or self.train_cli()
        if not trained:
            self.attempted += EXPECTED_ENTRIES
            raise RuntimeError("the set-up trained no model")
        if self.workload == "train":
            return None
        with open(self.model_path, "rb") as fh:
            return fh.read()

    # -- measured steps --------------------------------------------------------

    def per_plan(self, reg, plans) -> dict[str, list]:
        """Time ``estimate_query`` once per (plan, resource); returns the
        estimates by resource."""
        estimate_query = self.registry.estimate_query
        stamp = self.sampler.stamp
        out: dict[str, list] = {r: [] for r in RESOURCES}
        counted = self.workload != "train"
        for res in RESOURCES:
            for lo in range(0, len(plans), LATENCY_BATCH):
                works = []
                first = stamp()
                for qp in plans[lo:lo + LATENCY_BATCH]:
                    start = stamp()
                    try:
                        est = estimate_query(reg, qp, res)
                    except Exception as exc:  # noqa: BLE001 - counted as failed
                        print(f"perfbench: {qp.query_id}/{res}: {exc!r}", file=sys.stderr)
                        self.failed += counted
                        est = None
                    end = stamp()
                    works.append((end[0] - start[0]) - (end[1] - start[1]))
                    out[res].append(est)
                self.batches.append((len(self.blocks), first[0], end[0], works))
        if counted:
            self.attempted += len(plans) * len(RESOURCES)
        return out

    def cli_estimates(self) -> dict[str, int]:
        codes = {}
        for res in RESOURCES:
            argv = [
                "estimate", "--model", self.model_path, "--plans", self.plans_path,
                "--resource", RESOURCE_FLAG[res], "--out", self.est_path(res),
            ]
            codes[res] = self.timed("cli_estimate", self.cli_main, argv)
            if codes[res] != 0 and self.workload != "train":
                self.failed += self.n_plans
        if self.workload != "train":
            self.attempted += self.n_plans * len(RESOURCES)
        return codes

    def evals(self) -> dict[str, int]:
        codes = {}
        for res in RESOURCES:
            argv = [
                "eval", "--model", self.model_path, "--corpus", self.plans_path,
                "--resource", RESOURCE_FLAG[res], "--baselines",
                "--train-corpus", self.train_path, "--out", self.eval_prefix(res),
            ]
            codes[res] = self.timed("eval_s", self.cli_main, argv)
        return codes

    def est_path(self, res: str) -> str:
        return os.path.join(self.work, f"estimates-{res}.json")

    def eval_prefix(self, res: str) -> str:
        return os.path.join(self.work, f"eval-{res}")

    def round(self, plans, traced: bool) -> None:
        """One round: (train,) cold loads, per-plan estimates, ``qres estimate``
        and ``qres eval --baselines`` for both resources, then the checks."""
        with self.block("round", traced):
            if self.workload == "train":
                self.attempted += EXPECTED_ENTRIES
                if not self.train_cli():
                    return
            for _ in range(LOADS_PER_ROUND):
                reg = self.timed("load_s", self.cold_load)
            lib = self.per_plan(reg, plans)
            codes = self.cli_estimates()
            eval_codes = self.evals()
        self.untimed["model_bytes"].append(float(os.path.getsize(self.model_path)))
        self.check_round(reg, plans, lib, codes, eval_codes)

    # -- checks ------------------------------------------------------------------

    @contextlib.contextmanager
    def checking(self):
        """Record a failed check, or a check the program raised in, and go on
        with the next one."""
        try:
            yield
        except self.checks.CheckError as exc:
            self.errors.append(str(exc))
        except Exception as exc:  # noqa: BLE001 - the program failed a check
            self.errors.append(f"check raised {exc!r}")

    def check_round(self, reg, plans, lib, codes, eval_codes) -> None:
        ck = self.checks
        for res in RESOURCES:
            cli_docs = None
            with self.checking():
                lib_docs = [ck.estimate_doc(p.query_id, e) for p, e in zip(plans, lib[res]) if e is not None]
                ck.require(len(lib_docs) == len(plans), f"{res}: estimate_query failed on some plans")
                for doc in lib_docs:
                    ck.check_estimate_doc(doc)
                ck.require(codes[res] == 0, f"qres estimate --resource {res} exited {codes[res]}")
                with open(self.est_path(res), encoding="utf-8") as fh:
                    cli_docs = json.load(fh)
                # The CLI loads the model file afresh; the library estimates
                # came from the registry already in memory.
                ck.same_estimates(cli_docs, lib_docs, f"qres estimate --resource {res}")
            with self.checking():
                for p, est in list(zip(plans, lib[res]))[::WALK_EVERY]:
                    if est is not None:  # already counted as failed
                        self.check_walk(reg, p, res, est)
            with self.checking():
                ck.require(cli_docs is not None, f"no qres estimate output for {res}")
                ck.require(eval_codes[res] == 0, f"qres eval --resource {res} exited {eval_codes[res]}")
                self.check_l1(res, cli_docs)
        with self.checking():
            with open(self.model_path, "rb") as fh:
                blob = fh.read()
            ck.require(
                self.registry.serialize(self.registry.deserialize(blob)) == blob,
                "serialize(deserialize(b)) != b",
            )
            if self.workload == "train":
                ck.require(len(reg.entries) == EXPECTED_ENTRIES, f"{len(reg.entries)} entries trained")
        if not self.shape_checked:
            self.shape_checked = True
            with self.checking():
                self.check_shape(reg, plans)
            if self.workload == "train":
                with self.checking():
                    self.check_in_memory(reg, plans, blob)

    def preorder(self, qp):
        """``(node, parent operator code)`` in pre-order, by explicit stack."""
        out = []
        stack = [(qp.root, self.plan.NO_PARENT)]
        while stack:
            node, parent = stack.pop()
            out.append((node, parent))
            stack.extend((c, int(node.op)) for c in reversed(node.children))
        return out

    def check_walk(self, reg, qp, res: str, est) -> None:
        """Each operator's estimate equals an independent float64 walk of the
        chosen model, times its scaling term, clamped at 0, within rel 1e-12
        of the magnitude of the sum."""
        ck, registry = self.checks, self.registry
        nodes = self.preorder(qp)
        ck.require(len(nodes) == len(est.per_operator), f"{qp.query_id}: operator count")
        for (node, parent), (name, value) in zip(nodes, est.per_operator):
            ck.require(name == node.op.name, f"{qp.query_id}: operator order")
            fv = self.features.extract_features(node, parent)
            model, _ = registry.select_model(reg, node.op, res, fv)
            g = 1.0
            if isinstance(model, registry.CombinedModel):
                g = ck.scaling_term(model.terms, fv.values)
                fv = registry.transform_for_scaling(fv, model.terms)
                model = model.scaled_model
            x = {int(f): v for f, v in fv.values.items()}
            pred, magnitude = ck.walk_ensemble(model.init, model.learning_rate, model.trees, x)
            expect = max(0.0, g * pred)
            ck.require(
                ck.close(value, expect, 1e-12, scale=abs(g) * magnitude),
                f"{qp.query_id}/{res} {name}: estimate {value!r} != walk {expect!r}",
            )

    def check_l1(self, res: str, cli_docs: list[dict]) -> None:
        ck = self.checks
        if res not in self.truth:
            self.truth[res] = ck.observed_totals(self.plans_path, res)
        truth = self.truth[res]
        pairs = [(d["total"], truth[d["query_id"]]) for d in cli_docs]
        mine = ck.l1_err(pairs)
        self.untimed["cpu_l1_err" if res == "cpu_us" else "io_l1_err"].append(mine)
        with open(self.eval_prefix(res) + ".json", encoding="utf-8") as fh:
            report = json.load(fh)
        ck.require(
            ck.close(mine, report["SCALING"]["l1_err"], 1e-12),
            f"{res}: L1 {mine!r} != qres eval SCALING {report['SCALING']['l1_err']!r}",
        )
        mart = report["MART"]["l1_err"]
        share = ck.within_2x_share(pairs)
        if not self.shape_checked:
            print(
                f"perfbench: {res}: SCALING L1 {mine:.4f}, MART L1 {mart:.4f}, "
                f"SCALING within 2x on {share:.1%}",
                file=sys.stderr,
            )
        if self.workload == "estimate-extrap":
            if res == "cpu_us":
                ck.require(
                    mine <= MAX_SCALING_OVER_MART * mart,
                    f"extrapolation: SCALING L1 {mine:.3f} vs MART {mart:.3f}",
                )
        else:
            ck.require(share >= MIN_WITHIN_2X, f"{res}: SCALING within 2x on {share:.1%}")

    def check_shape(self, reg, plans) -> None:
        """The workload still exercises the layers it was chosen for."""
        registry = self.registry
        picks = defaults = scored = 0
        for res in RESOURCES:
            for qp in plans:
                for node, parent in self.preorder(qp):
                    fv = self.features.extract_features(node, parent)
                    entry = reg.entry(node.op, res)
                    _, idx = registry.select_model(reg, node.op, res, fv)
                    default = entry.models[entry.default_idx]
                    in_range = max(registry.model_out_ratios(default, fv)) == 0.0
                    picks += 1
                    defaults += idx == entry.default_idx
                    scored += 1 if in_range else 1 + len(entry.models)
        share, per_pick = defaults / picks, scored / picks
        print(
            f"perfbench: {picks} picks, {share:.1%} default, {per_pick:.2f} models scored per pick",
            file=sys.stderr,
        )
        if self.workload == "estimate-extrap":
            self.checks.require(per_pick >= MIN_MODELS_PER_PICK, f"{per_pick:.2f} models per pick")
        else:
            self.checks.require(share >= MIN_DEFAULT_SHARE, f"{share:.1%} default picks")

    def check_in_memory(self, reg, plans, blob: bytes) -> None:
        """A registry trained in memory serializes to the CLI's file and
        estimates exactly as the loaded one."""
        registry = self.registry
        cfg = self.TrainConfig(iterations=ITERATIONS, max_leaves=MAX_LEAVES, rng_seed=TRAIN_SEED)
        mem = registry.train_registry(self.plan.load_corpus(self.train_path), list(RESOURCES), cfg)
        self.checks.require(registry.serialize(mem) == blob, "in-memory training != qres train file")
        for res in RESOURCES:
            for qp in plans:
                a = registry.estimate_query(mem, qp, res)
                b = registry.estimate_query(reg, qp, res)
                self.checks.require(
                    (a.total, a.per_pipeline, a.per_operator) == (b.total, b.per_pipeline, b.per_operator),
                    f"{qp.query_id}/{res}: in-memory and loaded models disagree",
                )

    # -- the run -------------------------------------------------------------

    def run(self) -> dict:
        with self.sampler:
            begin = time.perf_counter()
            blobs = [self.setup_once()]
            setup_took = time.perf_counter() - begin
            plans = self.plan.load_corpus(self.plans_path)
            self.n_plans = len(plans)
            # Whole rounds only. --seconds counts set-ups and rounds: a round
            # starts if it, at the length of the slowest so far, and the
            # set-ups still to come, at the length of the slowest so far,
            # would end within --seconds of the start. The other set-ups run
            # one after each round, so that their samples, like the rounds',
            # spread over the run's phases of machine speed.
            rounds, longest = 0, 0.0
            while rounds < MIN_ROUNDS or (
                time.perf_counter() - begin + longest + (SETUPS - len(blobs)) * setup_took
                <= self.seconds
            ):
                t = time.perf_counter()
                self.round(plans, traced=False)
                if self.trace:
                    self.round(plans, traced=True)
                took = time.perf_counter() - t
                rounds += 1
                longest = max(longest, took) if rounds > 1 else 0.0
                if len(blobs) < SETUPS:
                    t = time.perf_counter()
                    blobs.append(self.setup_once())
                    setup_took = max(setup_took, time.perf_counter() - t)
            while len(blobs) < SETUPS:
                blobs.append(self.setup_once())
            measured = time.perf_counter() - begin
            with self.checking():
                self.checks.require(
                    all(b == blobs[0] for b in blobs), "set-ups wrote different model bytes"
                )
        print(
            f"perfbench: {self.workload} seed {self.seed}: {rounds} rounds and {SETUPS} set-ups in {measured:.1f} s, "
            f"{sum(len(w) for *_, w in self.batches)} latency samples, "
            f"{len(self.sampler.took)} reference samples",
            file=sys.stderr,
        )
        return self.layer_metrics() if self.trace else self.e2e_metrics()

    def timings(self, scaled: bool = True):
        """``(steps, totals, latencies)``: seconds of every step by (key,
        block), seconds of all timed work by block, and the per-call
        latencies in µs; nominal when ``scaled``, raw otherwise."""
        factor = self.sampler.factor if scaled else (lambda t0, t1: 1.0)
        steps: dict[tuple[str, int], list[float]] = {}
        totals: dict[int, float] = {}
        for key, blk, t0, t1, work in self.steps:
            x = work * factor(t0, t1)
            steps.setdefault((key, blk), []).append(x)
            totals[blk] = totals.get(blk, 0.0) + x
        latencies = []
        for blk, t0, t1, works in self.batches:
            f = factor(t0, t1)
            latencies.extend(w * f * 1e6 for w in works)
            totals[blk] = totals.get(blk, 0.0) + sum(works) * f
        return steps, totals, latencies

    def blocks_of(self, kind: str, traced: bool | None = None) -> list[int]:
        return [
            b for b, (k, t, _) in enumerate(self.blocks) if k == kind and traced in (None, t)
        ]

    def e2e_metrics(self) -> dict:
        out = self.e2e_values(scaled=True)
        raw = self.e2e_values(scaled=False)
        print(f"perfbench: raw (unscaled) values {json.dumps(raw)}", file=sys.stderr)
        return {k: {"value": out[k], "unit": unit} for k, unit in E2E_METRICS.items() if k in out}

    def e2e_values(self, scaled: bool) -> dict[str, float]:
        steps, totals, latencies = self.timings(scaled)
        # Rounds that got past training; a failed ``qres train`` ends its round.
        rounds = [b for b in self.blocks_of("round") if ("eval_s", b) in steps]

        def every(key: str) -> list[float]:
            return [x for (k, _), xs in steps.items() if k == key for x in xs]

        samples = {
            "setup_s": [totals[b] for b in self.blocks_of("setup")],
            "train_s": every("train_s"),
            "load_s": every("load_s"),
            "cli_estimate_plans_per_s": [
                self.n_plans * len(RESOURCES) / sum(steps[("cli_estimate", b)]) for b in rounds
            ],
            "eval_s": [sum(steps[("eval_s", b)]) for b in rounds],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
            **self.untimed,
        }
        # A metric with no samples (its step failed in every round) is left
        # out; the failure is already a failed check.
        v = {k: statistics.median(xs) for k, xs in samples.items() if xs}
        if latencies:
            v["estimate_p50_us"] = statistics.median(latencies)
            v["estimate_p99_us"] = percentile(latencies, 99.0)
        return v

    def layer_metrics(self) -> dict:
        def stat(stats, metric: str) -> float:
            base, kind = metric.rsplit(".", 1)
            if metric == "cli.cmd_train.report_s":
                st = stats["cli.cmd_train"]
                inner = ("plan.load_corpus", "registry.train_registry", "registry.save_registry")
                return st.total_s - sum(st.child_s.get(n, 0.0) for n in inner)
            st = stats[base]
            return {"calls": st.calls, "s": st.total_s, "self_s": st.self_s}[kind]

        _, totals, _ = self.timings(scaled=True)
        _, raw, _ = self.timings(scaled=False)

        def median_over(kind: str, metric: str, unit: str) -> float:
            return statistics.median(
                stat(self.blocks[b][2], metric) * (1.0 if unit == "count" else totals[b] / raw[b])
                for b in self.blocks_of(kind, traced=True)
            )

        out = {}
        for metric, unit in LAYER_METRICS.items():
            if metric == "trace.overhead_pct":
                plain, traced = (
                    statistics.median(totals[b] for b in self.blocks_of("round", t))
                    for t in (False, True)
                )
                value = 100.0 * (traced - plain) / plain
            else:
                value = median_over("setup", metric, unit) + median_over("round", metric, unit)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_trace(self, path: str, metrics: dict) -> None:
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent"],
            "first_round_spans": self.trace_rows,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # One thread: BLAS would otherwise start one per core for the small
    # matrix products of prediction and the least-squares baselines.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, HERE)
    import_qres()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(HERE, ".work"))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        try:
            metrics = bench.run()
        except Exception as exc:  # noqa: BLE001 - reported in the result line
            # An operation that raised outside the counted steps, or a
            # set-up without a model: report what was counted, not metrics.
            traceback.print_exc()
            bench.errors.append(f"run aborted: {exc!r}")
            metrics = {}
        if args.trace and metrics:
            bench.write_trace(
                os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"), metrics
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(work))
    for err in bench.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"perfbench: {name:<42} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
