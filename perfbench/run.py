"""Seeded closed-loop benchmark of the nashreduce pipeline.

Run from the root of a checkout; the package is imported from ``src``
without being installed::

    python3 perfbench/run.py --workload reduce-log --seed 1 --seconds 10 --trace 0

One process, one caller: each operation starts when the previous one has
finished.  A run sets up (fresh-interpreter import, input generation,
warm-up) nine times, then runs whole rounds of operations until
``--seconds`` have passed, checking every output against an exact oracle.

``--trace 0`` prints the end-to-end metrics.  Their times are calibrated
against the CPU speed the run saw (see ``probe.py``); the uncalibrated
throughput and median latency are printed after them.  ``--trace 1`` runs
each operation twice, untraced then traced, and prints the per-layer
metrics, the uncalibrated figures of the untraced copies among them; its
spans are written to ``perfbench/out``.

The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the environment, every metric with its unit and sample count, the
exact-repeat counts and the sha256 of each reduced game.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 9
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
FAILURES_SHOWN = 5

# counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = (
    "reductions.players",
    "reductions.edges",
    "reductions.N",
    "fileio.bytes",
    "rational.max_bits",
    "sweep.cases",
)

# per-layer time metrics: metric -> span names summed per round
LAYER_TIMES = {
    "model.poly_verify_s": ("model.PolymatrixGame.verify_wsne",),
    "model.bimatrix_verify_s": ("model.BimatrixGame.verify_wsne",),
    "model.to_dense_s": ("model.BimatrixGame.to_dense",),
    "reductions.linearize_s": ("reductions.linearize",),
    "reductions.bimatrixify_s": ("reductions.bimatrixify",),
    "reductions.recover_s": (
        "reductions.recover_from_bimatrix",
        "reductions.recover_from_polymatrix",
    ),
    "gadgets.combine_s": ("gadgets.GadgetCircuit.combine",),
    "gadgets.lift_s": ("gadgets.GadgetCircuit.lift",),
    "multipliers.chain_s": ("multipliers.build_multiplication_chain",),
    "solvers.solve_s": ("solvers.support_enumeration_bimatrix",),
    "solvers.lift_to_bimatrix_s": ("solvers.lift_to_bimatrix",),
    "fileio.write_s": ("fileio.write_game", "fileio.write_mapping"),
    "fileio.read_s": ("fileio.read_game", "fileio.read_mapping"),
}
MULTIPLIER_BUILDERS = (
    "multipliers.build_unary_multiplier",
    "multipliers.build_robust_multiplier",
)
SWEPT_KINDS = {"median": "sweep.median_s", "min": "sweep.min_s", "scaled_sum": "sweep.scaled_sum_s"}
VERIFY_SPANS = ("model.PolymatrixGame.verify_wsne", "model.BimatrixGame.verify_wsne")


def import_library():
    """Import nashreduce from this checkout's ``src``, never from elsewhere."""
    package = SRC / "nashreduce"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nashreduce

    if Path(nashreduce.__file__).resolve().parent != package:
        raise SystemExit(f"run.py: imported nashreduce from {nashreduce.__file__}, not {package}")
    return nashreduce


def environment(nashreduce, args) -> dict:
    return {
        "backend": nashreduce.ACTIVE.name,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up and the closed loop


def fresh_import() -> tuple[float, float]:
    """A new interpreter imports the package, as every command-line call
    does, and times the import against its own probe.  Returns (calibrated,
    raw) seconds; the interpreter's start-up is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "nashreduce"],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return tuple(json.loads(proc.stdout))


class Rounds:
    """Round r of a workload, generated once from the seed's stream and kept,
    so a second pass over round r sees the same inputs."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.made: list = []

    def fill(self, count: int) -> None:
        while len(self.made) < count:
            self.made.append(self.workload.make_round(self.rng))

    def __call__(self, r: int):
        self.fill(r + 1)
        return self.made[r]


def set_up(workload_cls, seed: int, work_dir: Path, probe):
    """Import, generate the input pool and warm up, SETUP_REPS times; the
    last repetition's inputs are the ones measured.  The warm-up inputs are
    the same for every seed, so that set-up work does not vary with it.
    Returns the rounds and each set-up's (calibrated, raw) seconds."""
    durations = []
    for _ in range(SETUP_REPS):
        imported = fresh_import()
        start = perf_counter()
        workload = workload_cls(work_dir)
        rounds = Rounds(workload, seed)
        rounds.fill(workload.pool_rounds)
        for op in workload.warm_up_ops(random.Random("warm-up")):
            outcome = op.run()
            if not outcome.ok:
                raise RuntimeError(f"warm-up {op.name} failed: {outcome.detail}")
        rest = probe.calibrated(start, perf_counter())
        durations.append((imported[0] + rest[0], imported[1] + rest[1]))
    return rounds, durations


@dataclass
class Sample:
    round: int
    name: str
    seconds: float  # calibrated
    raw: float
    ok: bool
    phases: dict


@dataclass
class Pass:
    samples: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    stats: list[tuple[str, dict]] = field(default_factory=list)  # round 0, per op

    @property
    def rounds(self) -> int:
        return self.samples[-1].round + 1 if self.samples else 0


def run_op(op, r: int, result: Pass, probe, tracer=None) -> None:
    """Run one operation of round ``r`` into ``result``.  A failed check or
    an exception is recorded and the loop goes on."""
    from workloads import Outcome

    op_id = len(result.samples)
    t0 = perf_counter()
    try:
        if tracer is None:
            outcome = op.run()
        else:
            with tracer.op(op_id):
                outcome = op.run()
    except Exception as err:  # the loop must survive a failing operation
        outcome = Outcome(ok=False, detail=f"{type(err).__name__}: {err}")
        if len(result.failures) < FAILURES_SHOWN:
            traceback.print_exc(file=sys.stderr)
    t1 = perf_counter()
    seconds, raw = probe.calibrated(t0, t1)
    scale = seconds / (t1 - t0)
    phases = {k: v * scale for k, v in outcome.phases.items()}
    result.samples.append(Sample(r, op.name, seconds, raw, outcome.ok, phases))
    if not outcome.ok:
        result.failures.append(f"round {r} {op.name}: {outcome.detail}")
    if r == 0 and outcome.stats is not None:
        result.stats.append((op.name, outcome.stats()))


def closed_loop(rounds: Rounds, seconds: float, probe) -> Pass:
    """Whole rounds until ``seconds`` have passed."""
    result = Pass()
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        for op in rounds(r):
            run_op(op, r, result, probe)
        r += 1
    return result


def traced_loop(rounds: Rounds, seconds: float, tracer, probe) -> tuple[Pass, Pass]:
    """Whole rounds until ``seconds`` have passed, each operation twice:
    untraced, then traced.  Pairing the two runs in time keeps most of the
    CPU's speed drift out of the tracing overhead; calibration removes
    more of it."""
    untraced, traced = Pass(), Pass()
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        for op in rounds(r):
            run_op(op, r, untraced, probe)
            with tracer.installed():
                run_op(op, r, traced, probe, tracer)
        r += 1
    return untraced, traced


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples above it, named;
    the maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} samples; no percentile has {TAIL_BEYOND} beyond it"
    pct = 100 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} samples, {TAIL_BEYOND} beyond it"


def exact_counts(stats: list[tuple[str, dict]]) -> tuple[dict, dict]:
    """Round-0 sizes summed over the round (bit lengths: the largest), and
    the sha256 of each reduced game."""
    counts = dict.fromkeys(EXACT_COUNTS, 0)
    digests = {}
    for _, st in stats:
        for key, value in st.items():
            if key == "sha256":
                digests.update(value)
            elif key == "rational.max_bits":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return counts, digests


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def uncalibrated(run: Pass) -> dict:
    """Throughput and median latency in raw seconds.  Calibration divides
    out a cost that slows the probe as much as the library, such as slower
    ``Fraction`` arithmetic; these figures keep it."""
    raw = [s.raw for s in run.samples]
    n = len(raw)
    return {
        "uncalibrated.ops_per_s": (n / sum(raw), "op/s", f"{n} ops in {sum(raw):.3f} raw s"),
        "uncalibrated.op_p50_s": (statistics.median(raw), "s", f"median of {n} samples, raw s"),
    }


def end_to_end(run: Pass, setup: list[tuple[float, float]]) -> dict:
    latencies = [s.seconds for s in run.samples]
    n = len(latencies)
    tail_value, tail_label = tail(latencies)
    metrics = {
        "ops_per_s": (n / sum(latencies), "op/s", f"{n} ops in {sum(latencies):.3f} s of operations"),
        "op_p50_s": (statistics.median(latencies), "s", f"median of {n} samples"),
        "op_tail_s": (tail_value, "s", tail_label),
        "setup_s": (
            statistics.median(c for c, _ in setup),
            "s",
            f"median of {len(setup)} set-ups; raw {statistics.median(r for _, r in setup):.4g} s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
            "peak resident set of this process",
        ),
    }
    for phase in ("reduce", "check"):
        values = [s.phases[phase] for s in run.samples if phase in s.phases]
        if values:
            metrics[f"{phase}_p50_s"] = (statistics.median(values), "s", f"median of {len(values)} samples")
    failed = sum(not s.ok for s in run.samples)
    metrics["failed_frac"] = (failed / n, "ratio", f"{failed} failed of {n} attempted")
    metrics.update(uncalibrated(run))
    return metrics


def per_layer(untraced: Pass, traced: Pass, tracer, probe) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass; times are calibrated and per
    round, the median over the traced rounds.  Also returns the self-time
    breakdown of the traced median operation (the mean of the middle two when
    their number is even)."""
    from spans import END, NAME, OP, OP_SPAN, PARENT, START, self_times

    samples = traced.samples
    spans = tracer.spans
    # one scale per operation, so that self times add up to its calibrated time
    scale = {s[OP]: probe.scale(s[START], s[END]) for s in spans if s[NAME] == OP_SPAN}
    durations = [probe.own(s[START], s[END]) * scale[s[OP]] for s in spans]
    own = self_times(spans, durations)
    per_round: dict[int, Counter] = defaultdict(Counter)
    per_op: dict[int, Counter] = defaultdict(Counter)
    for span, duration in zip(spans, durations):
        name, op_id = span[NAME], span[OP]
        sample = samples[op_id]
        totals = per_round[sample.round]
        per_op[op_id][name] += duration
        if name in MULTIPLIER_BUILDERS:
            if spans[span[PARENT]][NAME] == OP_SPAN:  # called by the benchmark itself
                totals["multipliers.build_s"] += duration
        elif name == "sweep.sweep_gadget":
            kind = sample.name[len("sweep["):-1]
            totals[SWEPT_KINDS.get(kind, "sweep.other_kinds_s")] += duration
        for metric, names in LAYER_TIMES.items():
            if name in names:
                totals[metric] += duration
    metric_names = list(LAYER_TIMES) + ["multipliers.build_s", *SWEPT_KINDS.values(), "sweep.other_kinds_s"]
    rounds = range(traced.rounds)
    metrics = {
        m: (float(statistics.median(per_round[r][m] for r in rounds)), "s", f"per round, median of {traced.rounds}")
        for m in metric_names
    }

    counts, _ = exact_counts(traced.stats)
    for key in EXACT_COUNTS:
        metrics[key] = (counts[key], "count", "round 0, exact")
    round0 = [i for i, s in enumerate(samples) if s.round == 0]
    metrics["model.out_edges_calls"] = (
        sum(tracer.counts[("model.PolymatrixGame.out_edges", i)] for i in round0),
        "count",
        "round 0, exact",
    )

    # growth against edge count, over operations whose sources differ in size
    edges = {name: st["reductions.edges"] for name, st in traced.stats if "reductions.edges" in st}
    sized = [i for i, s in enumerate(samples) if s.name in edges] if len(set(edges.values())) > 1 else []
    for metric, names in (
        ("model.verify_growth_exp", VERIFY_SPANS),
        ("reductions.linearize_growth_exp", ("reductions.linearize",)),
    ):
        points = [(edges[samples[i].name], sum(per_op[i][n] for n in names)) for i in sized]
        value = loglog_slope(points) if points else 0.0
        metrics[metric] = (value, "1", f"log-log slope over {len(points)} ops against edges")

    base = sum(s.seconds for s in untraced.samples)
    with_trace = sum(s.seconds for s in samples)
    metrics["trace.overhead_frac"] = (
        with_trace / base - 1,
        "ratio",
        f"traced vs untraced ops_per_s over {traced.rounds} paired rounds",
    )
    metrics.update(uncalibrated(untraced))

    # the middle operation, or the mean of the middle two, as statistics.median
    # takes the untraced op_p50_s
    order = sorted(range(len(samples)), key=lambda i: samples[i].seconds)
    middle = order[(len(order) - 1) // 2 : len(order) // 2 + 1]
    by_layer: Counter = Counter()
    for span, seconds in zip(spans, own):
        if span[OP] in middle:
            layer = "bench" if span[NAME] == OP_SPAN else span[NAME].split(".")[0]
            by_layer[layer] += seconds / len(middle)
    untraced_p50 = statistics.median(s.seconds for s in untraced.samples)
    blocking = {
        "ops": [samples[i].name for i in middle],
        "self_s_by_layer": dict(by_layer),
        "self_s_sum": sum(by_layer.values()),
        "untraced_op_p50_s": untraced_p50,
        "sum_vs_untraced_p50": sum(by_layer.values()) / untraced_p50 - 1,
        "overhead_frac": metrics["trace.overhead_frac"][0],
    }
    return metrics, blocking


# ---------------------------------------------------------------------------
# output


def report(metrics: dict, wanted: list[str]) -> dict:
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value!r} {unit} ({note})")
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted}


def bench_metric_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nashreduce = import_library()
    import workloads
    from probe import SpeedProbe
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wanted = bench_metric_names(args.trace)
    env = environment(nashreduce, args)
    print("env " + json.dumps(env, sort_keys=True))

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer = Tracer()
            with SpeedProbe() as probe:
                rounds, _ = set_up(workloads.WORKLOADS[args.workload], args.seed, work_dir, probe)
                untraced, traced = traced_loop(rounds, args.seconds, tracer, probe)
            metrics, blocking = per_layer(untraced, traced, tracer, probe)
            passes = [untraced, traced]
            print("blocking " + json.dumps(blocking, sort_keys=True))
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "env": env,
                "metrics": {k: v[0] for k, v in metrics.items()},
                "blocking": blocking,
                "ops": [[s.round, s.name, s.seconds] for s in traced.samples],
                "spans": tracer.spans,
            }))
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            with SpeedProbe() as probe:
                rounds, setup = set_up(workloads.WORKLOADS[args.workload], args.seed, work_dir, probe)
                run = closed_loop(rounds, args.seconds, probe)
            metrics = end_to_end(run, setup)
            passes = [run]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    counts, digests = exact_counts(passes[0].stats)
    print("counts " + json.dumps(counts, sort_keys=True))
    for label, digest in sorted(digests.items()):
        print(f"sha256 {label} {digest}")
    for line in [f for p in passes for f in p.failures][:FAILURES_SHOWN]:
        print(f"failed {line}")
    values = report(metrics, wanted)
    attempted = sum(len(p.samples) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
