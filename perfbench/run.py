"""evogate benchmark: seeded GA ensembles driven through the command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-npop100 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55   # BENCHMARK.json's workloads
    python3 perfbench/run.py --capture-fingerprints

Each workload is a closed loop with one caller: the benchmark issues one
``evogate`` command through ``cli.main``, waits for it, checks its output
files and issues the next.  Command ``k`` of a run covers the seeds
``seed * 1_000_000 + 1 + k * n`` onward (``n`` seeds per command), so the
workload seed sets ``--base-seed`` and a held-out seed gives fresh inputs.

``--trace 0`` measures the end-to-end metrics with nothing wrapped but the
per-run clock; ``--trace 1`` repeats one command untraced and then under the
span recorder (spans.py) and reports per-layer self times and counts.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a result file with the machine
facts is written under ``perfbench/results/``.

Correctness gate: an untimed warm-up command at the pinned seed (0) must
reproduce the sha256 fingerprints in ``fingerprints.json``, and every timed
command's ``best_genome`` column is re-scored with ``genome.decode`` and
``tasks.population_fitness`` and must equal its ``best_fitness`` exactly,
with ``epsilon_opt == 1 - best_fitness``.  A run whose row fails the check
counts as failed.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread in this process, its pool children and probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
PINNED_SEED = 0
SEED_STRIDE = 1_000_000
SETUP_PROBES = 9
COMMON_FLAGS = ("--task", "deutsch", "--depth", "15", "--threshold", "1e-4")


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    head: tuple  # subcommand words before the shared flags
    npop: int
    mutation: float
    elitism: int
    seeds: int  # seeds per command
    workers: int
    tail_pct: float  # fixed so that >= 10 samples lie beyond it in a run
    fit_after: bool  # follow the sweep with `evogate fit runs.csv`
    runs_csv: str

    def argvs(self, base_seed: int, out: Path, workers: int) -> list[list[str]]:
        main = [*self.head, *COMMON_FLAGS, "--npop", str(self.npop),
                "--mutation", repr(self.mutation), "--elitism", str(self.elitism),
                "--seeds", str(self.seeds), "--base-seed", str(base_seed),
                "--workers", str(workers), "--out", str(out)]
        if not self.fit_after:
            return [main]
        return [main, ["fit", str(out / self.runs_csv), "--bins", "20", "--out", str(out)]]


# fig7-npop101-mut is not in BENCHMARK.json: its heavy-tailed run lengths
# spread its latency percentiles across seeds beyond the 0.25 bound, so it is
# run by name (also with compare.py --workload); the bounded pool workload
# covers mutation, elitism and a discarded child at a small npop
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-npop100", ("sweep",), 100, 0.0, 0, 20, 1, 98.0, True, "runs.csv"),
        Workload("sweep-npop11-mut-pool", ("sweep",), 11, 1e-3, 2, 400, 2, 99.5, True,
                 "runs.csv"),
        Workload("fig7-npop101-mut", ("reproduce", "fig7"), 101, 1e-3, 2, 20, 1, 90.0, False,
                 "fig7_npop101_runs.csv"),
    )
}


def base_seed(seed: int, k: int, n: int) -> int:
    return seed * SEED_STRIDE + 1 + k * n


def bounded_workloads() -> list[str]:
    """The workloads listed in BENCHMARK.json, in its order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without the dict form of its build config
        blas_version = "unknown"
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class RunClock:
    """Per-run latencies, ``run_many`` wall times and pool-worker peak RSS.

    ``ga.run`` is replaced under the name ``cli`` calls it by; the wrapper
    stamps each returned record with its latency and the worker's peak RSS,
    which travel back from pool workers with the pickled record (the pool
    forks, so workers inherit the wrapper).  ``cli.run_many`` is wrapped to
    collect them without keeping the records.
    """

    def __init__(self):
        self.walls: list[float] = []  # of each run_many call
        self.seconds: list[float] = []  # of each completed run
        self.pool_kb: list[int] = []  # summed worker peak RSS of each run_many call
        self._patches: list = []

    def install(self) -> None:
        from evogate import cli, ga

        original = ga.run

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            record = original(*args, **kwargs)
            seconds = time.perf_counter() - t0
            object.__setattr__(record, "bench_seconds", seconds)
            object.__setattr__(record, "bench_rss", (
                os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
            return record

        run_many = cli.run_many

        def captured(*args, **kwargs):
            t0 = time.perf_counter()
            results = run_many(*args, **kwargs)
            self.walls.append(time.perf_counter() - t0)
            workers_kb: dict = {}
            for status, r in results:
                if status != "ok":
                    continue
                self.seconds.append(r.bench_seconds)
                pid, kb = r.bench_rss
                if pid != os.getpid():
                    workers_kb[pid] = max(kb, workers_kb.get(pid, 0))
            self.pool_kb.append(sum(workers_kb.values()))
            return results

        for key, value in list(vars(cli).items()):
            if value is original:
                self._patches.append((key, value))
                setattr(cli, key, timed)
        if not self._patches:
            raise RuntimeError("cli no longer calls ga.run by name; cannot time runs")
        self._patches.append(("run_many", run_many))
        cli.run_many = captured

    def uninstall(self) -> None:
        from evogate import cli

        for key, value in reversed(self._patches):
            setattr(cli, key, value)
        self._patches.clear()


@dataclass
class Outcome:
    wall: float
    attempted: int
    completed: int
    failed: int
    problems: list


def execute(w: Workload, base: int, out: Path, workers: int, wrap=None) -> tuple[float, list]:
    """Run the workload's command(s) once; returns (wall seconds, exit codes)."""
    from evogate import cli

    shutil.rmtree(out, ignore_errors=True)
    codes = []
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        for argv in w.argvs(base, out, workers):
            codes.append(wrap(cli.main, argv) if wrap else cli.main(argv))
        wall = time.perf_counter() - t0
    return wall, codes


def read_table(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_outputs(w: Workload, base: int, out: Path, codes: list, ga_cfg, task) -> Outcome:
    """Re-score every run of one command; failed runs and problems are counted."""
    import numpy as np
    from evogate import genome, tasks

    problems = []
    if any(code not in (0, 2) for code in codes):  # 2 = completed with flags
        problems.append(f"exit codes {codes}")
    try:
        rows = read_table(out / w.runs_csv)
    except (OSError, IndexError) as exc:
        problems.append(f"no runs table: {exc}")
        return Outcome(0.0, w.seeds, 0, w.seeds, problems)
    seeds = [int(r["seed"]) for r in rows]
    if seeds != list(range(base, base + w.seeds)):
        problems.append(f"runs table covers seeds {seeds[:3]}... not {base}..")
        return Outcome(0.0, w.seeds, 0, w.seeds, problems)
    ok = [r for r in rows if r["termination_reason"] != "error"]
    good = 0
    if ok:
        genomes = np.stack([genome.genome_from_field(r["best_genome"]) for r in ok])
        scores = tasks.population_fitness(task, genome.decode(genomes, ga_cfg.codec))
        for r, score in zip(ok, scores):
            best = float(r["best_fitness"])
            if best == score and float(r["epsilon_opt"]) == 1.0 - best:
                good += 1
            else:
                problems.append(f"seed {r['seed']}: best_fitness {best!r} re-scores {score!r}")
    failed = w.seeds - good
    if failed and not problems:
        problems.append(f"{failed} runs reported an error")
    return Outcome(0.0, w.seeds, good, failed, problems)


def fingerprint(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.suffix == ".csv"
    }


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def probe_setup(w: Workload, src: Path) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(src), str(w.npop),
         repr(w.mutation), str(w.elitism)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, w: Workload, seed: int, seconds: float, work: Path):
        from evogate import cli

        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.workers = min(w.workers, nproc())
        self.task = cli.resolve_task("deutsch")
        cfg = cli.ExperimentConfig(npop=w.npop, mutation=w.mutation, elitism=w.elitism)
        self.ga_cfg = cli.make_ga_config(cfg, self.task)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}

    def _tally(self, outcome: Outcome) -> Outcome:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        return outcome

    def command(self, base: int, workers: int, wrap=None, clock: RunClock | None = None,
                keep: bool = False) -> Outcome:
        """One checked command; its runs count towards attempted/failed."""
        out = self.work / "out"
        if clock:
            clock.install()
        try:
            wall, codes = execute(self.w, base, out, workers, wrap)
        finally:
            if clock:
                clock.uninstall()
        outcome = self._tally(check_outputs(self.w, base, out, codes, self.ga_cfg, self.task))
        outcome.wall = wall
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return outcome

    def warm_up(self) -> None:
        """Untimed command at the pinned seed, checked against the fingerprints."""
        base = base_seed(PINNED_SEED, 0, self.w.seeds)
        self.command(base, self.workers, keep=True)
        expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))[self.w.name]
        got = fingerprint(self.work / "out")
        if got != expected:
            changed = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
            self.problems.append(f"pinned-seed outputs differ from fingerprints: {changed}")
        shutil.rmtree(self.work / "out", ignore_errors=True)

    def end_to_end(self, src: Path) -> dict:
        self.warm_up()
        clock = RunClock()
        setup: list[float] = []
        completed, wall, k = 0, 0.0, 0
        start = time.perf_counter()
        while k == 0 or time.perf_counter() < start + self.seconds:
            # set-up probes are spread over the run, so that they see the same
            # machine as the commands do, and stay out of the commands' wall time
            share = (time.perf_counter() - start) / self.seconds
            while len(setup) < min(SETUP_PROBES, 1 + int(share * SETUP_PROBES)):
                setup.append(probe_setup(self.w, src))
            o = self.command(base_seed(self.seed, k, self.w.seeds), self.workers, clock=clock)
            completed += o.completed
            wall += o.wall
            k += 1
        while len(setup) < SETUP_PROBES:
            setup.append(probe_setup(self.w, src))
        lat_ms = [v * 1e3 for v in clock.seconds]
        tail = percentile(lat_ms, self.w.tail_pct)
        beyond = sum(1 for v in lat_ms if v > tail)
        # the benchmark process plus the largest pool of one command
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(clock.pool_kb)
        self.info.update({
            "commands": k, "seeds_per_command": self.w.seeds, "workers": self.workers,
            "run_samples": len(lat_ms), "tail_percentile": self.w.tail_pct,
            "tail_samples_beyond": beyond, "setup_probes_s": setup,
            "failed_frac": self.failed / max(self.attempted, 1),
            "latency_ms_percentiles": {p: percentile(lat_ms, p) for p in (90, 95, 98, 99, 99.5)},
        })
        return {
            "runs_per_s": (completed / wall, "runs/s"),
            "run_ms_p50": (statistics.median(lat_ms), "ms"),
            "run_ms_tail": (tail, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    def timed_command(self, base: int, workers: int) -> tuple[Outcome, float, float]:
        """A command under a fresh RunClock: (outcome, summed run seconds, run_many wall)."""
        clock = RunClock()
        o = self.command(base, workers, clock=clock)
        return o, sum(clock.seconds), sum(clock.walls)

    def per_layer(self) -> dict:
        from spans import SpanRecorder

        self.warm_up()
        base = base_seed(self.seed, 0, self.w.seeds)
        # one command at the run's seed, repeated in rounds so that each kind of
        # pass sees the same machine: pooled (pool workload only), serial
        # untraced, and serial traced in-process with identical counts
        effs, serial_rps, overheads, samples = [], [], [], []
        counts, first = None, None
        deadline = time.perf_counter() + self.seconds
        while not samples or time.perf_counter() < deadline:
            o, compute, run_many_wall = self.timed_command(base, 1)
            serial_rps.append(o.completed / o.wall)
            if self.workers > 1:
                run_many_wall = self.timed_command(base, self.workers)[2]
            effs.append(compute / (self.workers * run_many_wall))
            rec = SpanRecorder() if first is None else SpanRecorder(keep=0)
            o = self.command(base, 1, wrap=rec.traced_main)
            overheads.append(1.0 - (o.completed / o.wall) / serial_rps[-1])
            samples.append(layer_times(rec, o.wall))
            if counts is None:
                counts, first = rec.counts, rec
            elif rec.counts != counts:
                self.problems.append(f"traced counts differ between repeats: {rec.counts}")
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        first.dump(results / f"spans-{self.w.name}-seed{self.seed}.jsonl")

        metrics = {}
        for key, unit in samples[0].items():
            metrics[key] = (statistics.median(s[key][0] for s in samples), unit[1])
        runs = counts.get("ga.runs", 0)
        kept = counts.get("ga.children_kept", 0)
        if "ga.crossover" in first.missing:  # a breeding step without per-pair calls
            pairs, produced = counts.get("ga.pairs_needed", 0), kept
        else:
            pairs, produced = counts.get("ga.pairs", 0), counts.get("ga.children_produced", 0)
        candidates = counts.get("tasks.candidates", 0)
        fitness_ns = metrics["tasks.fitness_ms"][0] * 1e6 * runs
        metrics.update({
            "ga.generations": (counts.get("ga.generations", 0), "count"),
            "ga.pairs": (pairs, "count"),
            "ga.children_kept_ratio": (kept / produced if produced else 0.0, "ratio"),
            "genome.genes_decoded": (counts.get("genome.genes_decoded", 0), "count"),
            "linalg.unitaries": (counts.get("linalg.unitaries", 0), "count"),
            "tasks.candidates": (candidates, "count"),
            "tasks.ns_per_candidate": (fitness_ns / candidates if candidates else 0.0, "ns"),
            "analysis.fit_iters": (counts.get("analysis.fit_iters", 0), "count"),
            "files.bytes_written": (counts.get("files.bytes_written", 0), "count"),
            "cli.pool_efficiency": (statistics.median(effs), "ratio"),
            "trace.overhead_frac": (statistics.median(overheads), "ratio"),
        })
        self.info.update({
            "serial_runs_per_s": statistics.median(serial_rps),
            "rounds": len(samples), "workers": self.workers,
            "missing_spans": first.missing, "span_calls": first.calls,
        })
        return metrics


# per-layer self times, each span name in exactly one metric, so they sum to
# the traced command (cli.main_ms is the remainder); ga.breed_ms rolls up next_generation's own time and its
# select/crossover/mutate children (evaluate is reported on its own)
PARTITION = {
    "cli.main_ms": ("cli.main",),
    "cli.run_many_ms": ("cli.run_many",),
    "ga.run_ms": ("ga.run",),
    "ga.streams_ms": ("ga.streams",),
    "ga.breed_ms": ("ga.next_generation", "ga.select_pair", "ga.crossover", "ga.mutate"),
    "ga.evaluate_ms": ("ga.evaluate",),
    "ga.fluctuation_ms": ("ga.fitness_fluctuation",),
    "genome.decode_ms": ("genome.decode",),
    "tasks.fitness_ms": ("tasks.population_fitness",),
    "linalg.su2_ms": ("linalg.su2_closed_form",),
    "analysis.aggregate_ms": ("analysis.aggregate",),
    "analysis.prepared_state_ms": ("analysis.prepared_state",),
    "analysis.fit_ms": ("analysis.fit",),
    "files.write_ms": ("files.write",),
}
BREED_PARTS = {"ga.select_ms": "ga.select_pair", "ga.crossover_ms": "ga.crossover",
               "ga.mutate_ms": "ga.mutate"}


def layer_times(rec, wall: float) -> dict:
    """Per-run self times (ms/run) of one traced command, plus span coverage.

    Coverage leaves out ``cli.main``, the root span: its self time is whatever
    no wrapped function accounts for (argument parsing, building output rows,
    reading the fit input), so coverage falls when work moves out of the
    named layers.
    """
    runs = max(rec.counts.get("ga.runs", 0), 1)
    out = {key: (sum(rec.self_ms(n) for n in names) / runs, "ms/run")
           for key, names in PARTITION.items()}
    out.update({key: (rec.self_ms(name) / runs, "ms/run") for key, name in BREED_PARTS.items()})
    covered = sum(v for k, (v, _) in out.items() if k in PARTITION and k != "cli.main_ms") * runs
    out["trace.coverage"] = (covered / (wall * 1e3), "ratio")
    return out


def capture_fingerprints(work: Path) -> None:
    prints = {}
    for w in WORKLOADS.values():
        bench = Bench(w, PINNED_SEED, 0, work)
        o = bench.command(base_seed(PINNED_SEED, 0, w.seeds), bench.workers, keep=True)
        if o.failed or bench.problems:
            raise SystemExit(f"{w.name}: outputs fail the check: {bench.problems}")
        prints[w.name] = fingerprint(work / "out")
        shutil.rmtree(work / "out")
    FINGERPRINTS.write_text(json.dumps(prints, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FINGERPRINTS}")


def fmt_value(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def bench_one(w: Workload, args, src: Path, work: Path) -> dict:
    bench = Bench(w, args.seed, args.seconds, work)
    metrics = bench.per_layer() if args.trace else bench.end_to_end(src)
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"== {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {fmt_value(value)} {unit}")
    if not args.trace:
        print(f"failed_frac = {bench.info['failed_frac']!r} ratio")
        beyond = bench.info["tail_samples_beyond"]
        print(f"run_ms_tail is p{w.tail_pct:g} of {bench.info['run_samples']} runs, "
              f"{beyond} beyond it" + (" (fewer than 10: run longer)" if beyond < 10 else ""))
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(), "info": bench.info, "problems": bench.problems,
        **result,
    }, indent=2, default=repr) + "\n", encoding="utf-8")
    print(f"result file: {path}")
    return result


def merge(results: list[dict], names: list[str]) -> dict:
    """One JSON line for several workloads: metrics are prefixed by workload."""
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{n}/{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-fingerprints", action="store_true",
                        help="record the pinned-seed output hashes and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "evogate" / "__init__.py").is_file():
        print(f"error: no evogate sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.capture_fingerprints:
            capture_fingerprints(work)
            return 0
        names = bounded_workloads() if args.workload == "all" else [args.workload]
        results = [bench_one(WORKLOADS[n], args, src, work) for n in names]
        final = results[0] if len(results) == 1 else merge(results, names)
        print(json.dumps(final))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
