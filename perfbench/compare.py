"""Parent-versus-change comparison with the same benchmark code on both sides.

Usage (from any directory):

    python3 perfbench/compare.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \\
        [--workload NAME ...] [--pairs 10] [--first-seed 1] [--seconds N]

Each checkout is a repository root holding ``src/evogate``; both are measured
by the ``run.py`` next to this file, so only the program differs.  Pair ``i``
runs every workload (those of BENCHMARK.json unless ``--workload`` names
others) on both sides at seed ``first_seed + i``, the parent
first on even pairs and the change first on odd ones.

For each end-to-end metric and workload the report gives each side's median
and quartiles and a verdict, using the bounds in BENCHMARK.json:

* ``unresolved``: either side's quartile spread (as a share of its median)
  is wider than the bound, unless every change run beats every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's quartile
  spread;
* ``no change``: none of the above.

The change in ``failed_frac`` (failed / attempted runs) is reported per
workload.  The report is also written as JSON,
with the machine facts, under ``perfbench/results/``.  Exit code 1 means a
regression or a failed correctness check.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, machine_facts  # noqa: E402


def bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = -1.0 if better == "lower" else 1.0  # sign * value grows when it gets better
    p_q1, p_med, p_q3 = spread(parent)
    c_q1, c_med, c_q3 = spread(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    worse = -sign * (c_med - p_med) / abs(p_med)
    widest = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if widest > bound and not all_better:
        call = "unresolved"
    elif worse > bound:
        call = "regression"
    elif wins >= math.ceil(0.9 * len(parent)) and sign * (c_med - p_med) > p_q3 - p_q1:
        call = "gain"
    else:
        call = "no change"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins, "pairs": len(parent), "worse_frac": worse, "spread": widest,
        "bound": bound, "verdict": call,
    }


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                runs[w][side].append(bench(sides[side], w, seed, args.seconds, 0))
            print(f"pair {i + 1}/{args.pairs} seed {seed} {w} done", file=sys.stderr, flush=True)

    report = {"machine": machine_facts(), "sides": {k: str(v) for k, v in sides.items()},
              "seconds": args.seconds, "first_seed": args.first_seed, "workloads": {}}
    bad = False
    print(f"{'workload':<20} {'metric':<13} {'parent med [q1, q3]':<34} "
          f"{'change med [q1, q3]':<34} {'wins':>5} {'worse':>7} {'spread':>7}  verdict")
    for w in workloads:
        entry = {"metrics": {}}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {s: [r["metrics"][name]["value"] for r in runs[w][s]] for s in sides}
            v = verdict(values["parent"], values["change"], m["better"], m["bound"])
            entry["metrics"][name] = v
            bad |= v["verdict"] == "regression"
            p, c = v["parent"], v["change"]
            print(f"{w:<20} {name:<13} {p['median']:>10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"{'':<8} {c['median']:>10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]{'':<8} "
                  f"{v['wins']:>2}/{v['pairs']:<2} {v['worse_frac']:>+7.3f} {v['spread']:>7.3f}  "
                  f"{v['verdict']}")
        for s in sides:
            attempted = sum(r["attempted"] for r in runs[w][s])
            failed = sum(r["failed"] for r in runs[w][s])
            entry[s] = {"failed_frac": failed / attempted, "attempted": attempted,
                        "all_correct": all(r["correct"] for r in runs[w][s])}
            bad |= not entry[s]["all_correct"]
        delta = entry["change"]["failed_frac"] - entry["parent"]["failed_frac"]
        entry["failed_frac_change"] = delta
        print(f"{w:<20} failed_frac parent {entry['parent']['failed_frac']:.4g} "
              f"change {entry['change']['failed_frac']:.4g} (change {delta:+.4g}); "
              f"all correct: parent {entry['parent']['all_correct']}, "
              f"change {entry['change']['all_correct']}")
        report["workloads"][w] = entry

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report: {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
