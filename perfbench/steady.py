"""Steadiness check for the benchmark, and comparison of two result sets.

Run every workload once per seed, for SEEDS seeds, in SETS sets, and report
each end-to-end metric's spread: the distance between the first and third
quartile as a share of the median.  From the repository root::

    python3 perfbench/steady.py run --out perfbench/out/steady.json

The check fails when a spread exceeds a third of the metric's bound, when
a later set's median is worse than the first's by more
than the bound, or when an exact-repeat count or a reduced game's sha256
differs between two runs of one seed.  Results taken under different rational backends are
refused.  The uncalibrated figures are printed with their spreads but not
checked: they carry the CPU's speed drift.

To compare two saved result files (say, a parent commit and a change)::

    python3 perfbench/steady.py compare parent.json change.json
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
UNCALIBRATED = {"uncalibrated.ops_per_s": "higher", "uncalibrated.op_p50_s": "lower"}
SEEDS = 10
SETS = 2

METRIC_LINE = re.compile(r"metric (\S+) = (\S+) ")


def run_once(workload: str, seed: int) -> dict:
    """One untraced run; its result and what it printed before the result."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    run = {"result": json.loads(lines[-1]), "wall_s": wall, "sha256": {}, "printed": {}}
    for line in lines[:-1]:
        head, _, rest = line.partition(" ")
        if head in ("env", "counts"):
            run[head] = json.loads(rest)
        elif head == "sha256":
            label, digest = rest.split()
            run["sha256"][label] = digest
        elif match := METRIC_LINE.match(line):
            run["printed"][match[1]] = float(match[2])
    return run


def values_of(runs: list[dict], metric: str) -> list[float]:
    if metric in BOUNDS:
        return [r["result"]["metrics"][metric]["value"] for r in runs]
    return [r["printed"][metric] for r in runs]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def worse_by(better: str, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return -change if better == "higher" else change


def backend_of(runs: list[dict]) -> str:
    backends = {r["env"]["backend"] for r in runs}
    if len(backends) != 1:
        raise SystemExit(f"refusing to compare results taken under different backends: {sorted(backends)}")
    return backends.pop()


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: median and spread over the runs."""
    table: dict = {}
    for workload in sorted({r["env"]["workload"] for r in runs}):
        mine = [r for r in runs if r["env"]["workload"] == workload]
        table[workload] = {}
        for metric in [*BOUNDS, *UNCALIBRATED]:
            values = values_of(mine, metric)
            median, share = spread(values)
            table[workload][metric] = {"median": median, "spread": share, "values": values}
    return table


def check_sets(sets: list[list[dict]]) -> list[str]:
    problems = []
    tables = [summarize(s) for s in sets]
    for workload in tables[0]:
        for metric, spec in BOUNDS.items():
            bound = spec["bound"]
            for number, table in enumerate(tables, start=1):
                share = table[workload][metric]["spread"]
                if share > bound / 3:
                    problems.append(f"{workload} {metric}: set {number} spread {share:.3f} > bound/3 {bound / 3:.3f}")
            first = tables[0][workload][metric]["median"]
            for table in tables[1:]:
                worse = worse_by(spec["better"], first, table[workload][metric]["median"])
                if worse > bound:
                    problems.append(f"{workload} {metric}: a later set's median is worse by {worse:.3f} > {bound}")
    by_key: dict = {}
    for run in (r for s in sets for r in s):
        key = (run["env"]["workload"], run["env"]["seed"])
        seen = (run["counts"], run["sha256"])
        if by_key.setdefault(key, seen) != seen:
            problems.append(f"{key[0]} seed {key[1]}: exact-repeat counts or sha256 differ between runs")
        if not run["result"]["correct"]:
            problems.append(f"{key[0]} seed {key[1]}: {run['result']['failed']} failed operations")
    return problems


def print_table(tables: list[dict]) -> None:
    for workload, metrics in tables[0].items():
        for metric in metrics:
            cells = "  ".join(
                f"median {t[workload][metric]['median']:.6g} spread {t[workload][metric]['spread']:.3f}"
                for t in tables
            )
            bound = f"bound {BOUNDS[metric]['bound']}" if metric in BOUNDS else "not checked"
            print(f"{workload:16} {metric:23} {cells}  ({bound})")


def cmd_run(args) -> int:
    sets = []
    for number in range(SETS):
        runs = []
        for workload in (w["name"] for w in SPEC["workloads"]):
            for seed in range(SEEDS):
                run = run_once(workload, seed)
                runs.append(run)
                values = {k: round(v["value"], 6) for k, v in run["result"]["metrics"].items()}
                print(f"set {number + 1} {workload} seed {seed} ({run['wall_s']:.1f} s): {values}", flush=True)
        sets.append(runs)
    backend_of([r for s in sets for r in s])
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))
    walls = [r["wall_s"] for s in sets for r in s]
    print(f"{len(walls)} runs took {sum(walls):.0f} s; the longest {max(walls):.1f} s")
    print_table([summarize(s) for s in sets])
    problems = check_sets(sets)
    for line in problems:
        print("NOT STEADY " + line)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def cmd_compare(args) -> int:
    before, after = ([r for s in json.loads(Path(p).read_text()) for r in s] for p in (args.before, args.after))
    backend_of(before + after)
    old, new = summarize(before), summarize(after)
    worse = []
    for workload in sorted(set(old) & set(new)):
        for metric in [*BOUNDS, *UNCALIBRATED]:
            a, b = old[workload][metric]["median"], new[workload][metric]["median"]
            if metric in BOUNDS:
                change = worse_by(BOUNDS[metric]["better"], a, b)
                verdict = "WORSE" if change > BOUNDS[metric]["bound"] else "ok"
            else:
                change, verdict = worse_by(UNCALIBRATED[metric], a, b), "not checked"
            print(f"{workload:16} {metric:23} {a:.6g} -> {b:.6g}  worse by {change:+.3f}  {verdict}")
            if verdict == "WORSE":
                worse.append((workload, metric))
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help=f"run every workload for {SEEDS} seeds in {SETS} sets and check the spreads")
    run.add_argument("--out", help="save every run's result here")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="compare two files saved by run --out")
    compare.add_argument("before")
    compare.add_argument("after")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
