import csv
import errno
import json
import math
import os
import pickle
import random
import subprocess
import sys
import textwrap
import time
from contextlib import suppress
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import evogate
from evogate import cli, files, genome, tasks
from evogate.cli import main


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_table(path):
    """Parse metadata block plus the first CSV section."""
    meta = {}
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# ") and " = " in line:
                key, _, value = line[2:].partition(" = ")
                meta[key] = value
            elif line.startswith("#"):
                continue
            elif header is None:
                header = line.split(",")
            else:
                cells = line.split(",")
                if len(cells) != len(header) or cells[0] == header[0]:
                    break  # a second header row starts the summary section
                rows.append(dict(zip(header, cells)))
    return meta, header, rows


# ------------------------------------------------------------ config format

def test_parse_config_text():
    parsed = files.parse_config_text("# comment\n npop = 30 \n\nthreshold=0.01\n")
    assert parsed == {"npop": "30", "threshold": "0.01"}
    with pytest.raises(ValueError):
        files.parse_config_text("npop 30")
    with pytest.raises(ValueError):
        files.parse_config_text("npop =")
    with pytest.raises(ValueError):
        files.parse_config_text("npop = 1\nnpop = 2")


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("npop = 24\nthreshold = 0.5\nseeds = 2\n")
    out = tmp_path / "out"
    rc = main([
        "sweep", "--config", str(cfg_file), "--npop", "12",
        "--base-seed", "5", "--out", str(out),
    ])
    assert rc == 0
    echoed = capsys.readouterr().out
    assert "npop = 12" in echoed  # flag wins over file
    assert "threshold = 0.5" in echoed  # file wins over default
    meta, _, _ = read_table(out / "runs.csv")
    assert meta["npop"] == "12"
    assert meta["threshold"] == "0.5"
    assert meta["seeds"] == "2"


@pytest.mark.parametrize("command", [["run"], ["sweep"], ["fit", "in.csv"], ["reproduce", "fig5"]])
def test_every_setting_is_a_flag_and_a_config_key(tmp_path, command):
    # each ExperimentConfig field is declared once: every subcommand takes it
    # as a --flag, read to the value its config-file line gives
    parser = cli.build_parser()
    for f in fields(cli.ExperimentConfig):
        kind = type(f.default)
        text = str(f.default + {int: 2, float: 0.25, str: "x"}[kind])
        args = parser.parse_args([*command, "--" + f.name.replace("_", "-"), text])
        from_flag = cli.load_config(None, {g.name: getattr(args, g.name)
                                           for g in fields(cli.ExperimentConfig)})
        cfg_file = tmp_path / f"{f.name}.cfg"
        cfg_file.write_text(f"{f.name} = {text}\n")
        assert from_flag == cli.load_config(cfg_file, {})
        assert from_flag[1] == {f.name}
        assert getattr(from_flag[0], f.name) == kind(text) != f.default


def test_unknown_config_key_fails(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("population = 10\n")
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 1


def test_config_value_of_the_wrong_type_fails(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("npop = 1.5\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert "config key 'npop': cannot parse '1.5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run", "--npop", "12", "--base-seed", "3"],
    ["sweep", "--npop", "12", "--seeds", "3"],
    ["fit", "points.csv", "--bins", "0"],
    ["reproduce", "fig5", "--npop", "10", "--seeds", "3", "--max-gen", "30"],
    ["reproduce", "fig6", "--npop", "12", "--seeds", "3"],
    ["reproduce", "fig7", "--npop", "10", "--seeds", "20"],
], ids=["run", "sweep", "fit", "fig5", "fig6", "fig7"])
def test_config_echo_is_the_files_metadata(tmp_path, monkeypatch, capsys, command):
    # a figure's presets apply before the echo, so stdout tells what the
    # files' metadata blocks say, in the tables and the JSON files alike
    monkeypatch.chdir(tmp_path)
    Path("points.csv").write_text("epsilon,q\n" + "".join(
        f"{e},{20 * math.exp(-15 * e) + 9}\n" for e in (0.0, 0.03, 0.06, 0.1, 0.15, 0.2)))
    assert main([*command, "--out", "out"]) in (0, 2)
    echo = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                if line.split(" = ")[0].isidentifier())
    tables = sorted(Path("out").glob("*.csv"))
    assert tables
    for table in tables:
        # every table opens with the version line of the package that wrote it
        assert table.read_text(encoding="utf-8").split("\n", 1)[0] == \
            f"# evogate {evogate.__version__}", table.name
        meta, _, _ = read_table(table)
        shared = echo.keys() & meta.keys()
        assert "seeds" in shared
        assert {k: meta[k] for k in shared} == {k: echo[k] for k in shared}, table.name
    for doc in sorted(Path("out").glob("*.json")):
        meta = json.loads(doc.read_text(encoding="utf-8"))["metadata"]
        assert meta.pop("version") == evogate.__version__, doc.name
        shared = echo.keys() & meta.keys()
        assert "seeds" in shared
        assert {k: files.fmt(meta[k]) for k in shared} == {k: echo[k] for k in shared}, doc.name


def test_usage_error_exit_code():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["reproduce", "fig9"]) == 1
    assert main(["--version"]) == 0


# -------------------------------------------------------------------- run

def test_run_writes_all_outputs(tmp_path):
    out = tmp_path / "single"
    rc = main([
        "run", "--task", "deutsch", "--npop", "40", "--base-seed", "7",
        "--out", str(out),
    ])
    assert rc == 0
    run_csv = out / "run_7.csv"
    genome_json = out / "genome_7.json"
    analysis_json = out / "analysis_7.json"
    assert run_csv.exists() and genome_json.exists() and analysis_json.exists()

    meta, header, rows = read_table(run_csv)
    assert meta["seed"] == "7"
    assert "rounding_bound" in meta
    assert header == ["run_id", "seed", "generation", "mean_fitness",
                      "fluctuation", "best_fitness"]
    assert [r["generation"] for r in rows] == [str(g + 1) for g in range(len(rows))]

    # the trailing summary row carries the serialized best genome
    lines = run_csv.read_text().splitlines()
    assert lines[-2].split(",")[0] == "run_id"
    summary = dict(zip(lines[-2].split(","), lines[-1].split(",")))
    assert summary["q_c"] == str(len(rows))
    assert summary["termination_reason"] in ("converged", "generation-cap")
    best = genome.genome_from_field(summary["best_genome"])
    assert best.shape == (2, 3)
    assert all(len(s) == 15 for s in summary["best_genome"].replace(";", "|").split("|"))

    payload = json.loads(genome_json.read_text())
    assert genome.genome_from_strings(payload["slots"]).shape == (2, 3)
    assert np.array_equal(genome.genome_from_strings(payload["slots"]), best)

    side = json.loads(analysis_json.read_text())
    assert side["metadata"]["seed"] == 7
    assert len(side["rotations"]) == 2
    assert 0.0 <= side["prepared_state"]["alpha"] <= 1.0
    assert "orthogonality_defect" in side["decision"]

    # the genome file alone, read at the run's depth and half-range, re-scores
    # to the run's fitness exactly
    meta = side["metadata"]
    assert {len(s) for slot in payload["slots"] for s in slot} == {meta["depth"]}
    codec = genome.CodecConfig(depth=meta["depth"], half_range=meta["half_range"])
    params = genome.decode(genome.genome_from_strings(payload["slots"]), codec)
    assert float(tasks.population_fitness(tasks.deutsch_task(), params)) == side["best_fitness"]


def test_run_trivial_threshold_converges_immediately(tmp_path):
    out = tmp_path / "fast"
    rc = main(["run", "--threshold", "1.0", "--npop", "10", "--out", str(out)])
    assert rc == 0
    _, _, rows = read_table(out / "run_1.csv")
    assert len(rows) == 1


def test_run_generation_cap_exit_code(tmp_path):
    out = tmp_path / "capped"
    rc = main([
        "run", "--npop", "6", "--threshold", "1e-12", "--max-gen", "3",
        "--out", str(out),
    ])
    assert rc == 2


def test_run_missing_task_writes_nothing(tmp_path):
    out = tmp_path / "nothing"
    rc = main(["run", "--task", str(tmp_path / "no_such_task.json"), "--out", str(out)])
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize("depth", ["53", "63", "64"])
def test_run_rejects_depth_beyond_exact_grid(tmp_path, capsys, depth):
    out = tmp_path / "deep"
    rc = main(["run", "--depth", depth, "--npop", "4", "--out", str(out)])
    assert rc == 1
    assert f"depth must be in 1..52, got {depth}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("half_range", ["inf", "1e308"])
def test_run_rejects_half_range_whose_squares_overflow(tmp_path, capsys, half_range):
    out = tmp_path / "wide"
    rc = main(["run", "--half-range", half_range, "--npop", "4", "--out", str(out)])
    assert rc == 1
    assert "half_range must be positive with 3 * half_range**2 finite" in capsys.readouterr().err
    assert not out.exists()


def test_run_accepts_task_file(tmp_path):
    task_path = tmp_path / "deutsch_copy.json"
    tasks.save_task(tasks.deutsch_task(), task_path)
    out = tmp_path / "fromfile"
    rc = main(["run", "--task", str(task_path), "--npop", "20", "--out", str(out)])
    assert rc in (0, 2)
    assert (out / "run_1.csv").exists()


NAN_KET = [[math.nan, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("field, value", [
    ("oracle_families", []), ("slots", 5), ("slots", [{}]),
    # NaN compares false with every tolerance, so a plain ">" check lets it pass
    ("initial_state", NAN_KET),
    ("pairs", [["const0", NAN_KET], ["identity", [[0.0, 0.0], [1.0, 0.0]]]]),
    ("oracle_families", {"oracle": {"const0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                                    "identity": [NAN_KET, [[0.0, 0.0], [-1.0, 0.0]]]}}),
    # int() alone would truncate these to 2 and 1
    ("dim", 2.7),
    ("slots", [{"kind": "trainable", "index": 1.9}, {"kind": "oracle"},
               {"kind": "trainable", "index": 2}]),
])
def test_run_rejects_a_mistyped_task_file(tmp_path, field, value):
    data = tasks.task_to_dict(tasks.deutsch_task())
    data[field] = value
    task_path = tmp_path / "bad.json"
    task_path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "o"
    env = {**os.environ, "PYTHONPATH": str(Path(evogate.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "evogate", "run", "--task", str(task_path),
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "error: malformed task description" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# ------------------------------------------------------------------ sweep

def test_sweep_zero_seeds_fails(tmp_path):
    assert main(["sweep", "--seeds", "0", "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_rejected(tmp_path, capsys, workers):
    out = tmp_path / "o"
    assert main(["sweep", "--seeds", "2", "--workers", workers, "--out", str(out)]) == 1
    assert f"config key 'workers' must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()
    # a config file entry is checked the same way
    conf = tmp_path / "exp.conf"
    conf.write_text(f"workers = {workers}\n", encoding="utf-8")
    assert main(["sweep", "--config", str(conf), "--seeds", "2", "--out", str(out)]) == 1
    assert "config key 'workers'" in capsys.readouterr().err


def test_a_setting_that_cannot_be_written_fails_before_any_run(tmp_path, monkeypatch, capfd):
    # a task path holding a lone surrogate has no UTF-8 form in the files'
    # metadata, and one holding a line break would end its metadata line early
    # (`fit` would then read the path's tail as the header): the sweep must
    # stop before its first run, not after its last
    # (capfd, not capsys: capsys's strict UTF-8 stdout would stop the echo first)
    monkeypatch.chdir(tmp_path)
    real_run, calls = cli.ga_run, []

    def counting(*args):
        calls.append(args)
        return real_run(*args)

    monkeypatch.setattr(cli, "ga_run", counting)
    for name, problem in [(os.fsdecode(b"t\xff.json"), "cannot be written as UTF-8"),
                          ("t\nq.json", "holds a line break"),
                          ("t\rq.json", "holds a line break")]:
        tasks.save_task(tasks.deutsch_task(), name)
        argv = ["sweep", "--task", name, "--npop", "10", "--seeds", "3", "--out", "o"]
        assert main(argv) == 1
        assert calls == []
        assert f"config key 'task' {problem}" in capfd.readouterr().err
        assert not (tmp_path / "o").exists()


def test_negative_horizon_is_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["sweep", "--seeds", "2", "--horizon", "-5", "--out", str(out)]) == 1
    assert "config key 'horizon' must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds, pages", [
    ("3", 256),      # 1 MB: far below the 48 MB that ensemble_stats alone holds
    ("1", 25_000),   # 100 MB: above ensemble_stats' 16 MB, below what the writer holds
])
def test_a_horizon_whose_stats_exceed_memory_fails_before_any_run(tmp_path, monkeypatch, capsys,
                                                                   seeds, pages):
    # a 1e6-generation stats table on a small host: the sweep must stop
    # before its first run, not in ensemble_stats or in the stats writer
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    calls = []

    def counting(*args):
        calls.append(args)
        raise RuntimeError("no run may start")

    monkeypatch.setattr(cli, "ga_run", counting)
    out = tmp_path / "o"
    assert main(["sweep", "--seeds", seeds, "--horizon", "1000000", "--out", str(out)]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert f"error: config key 'horizon': {seeds} seeds x 1000000 generations" in err
    assert not out.exists()


def test_a_host_that_reports_no_memory_size_still_runs(tmp_path, monkeypatch):
    # Windows has neither os.sysconf nor os.sysconf_names: the horizon bound
    # is skipped there, and every other command works as before
    monkeypatch.delattr(os, "sysconf", raising=False)
    monkeypatch.delattr(os, "sysconf_names", raising=False)
    assert main(["run", "--threshold", "1.0", "--npop", "10", "--horizon", "5",
                 "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command, seed", [("sweep", "-2"), ("run", "-1")])
def test_negative_base_seed_is_rejected(tmp_path, capsys, command, seed):
    out = tmp_path / "o"
    assert main([command, "--seeds", "4", "--base-seed", seed, "--out", str(out)]) == 1
    assert f"config key 'base_seed' must be >= 0, got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_zero_seeds_is_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["reproduce", "fig6", "--seeds", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "config key 'seeds' must be >= 1, got 0" in captured.err
    assert "runs succeeded" not in captured.out
    assert not out.exists()


def test_reproduce_bad_setting_writes_nothing(tmp_path, capsys):
    out = tmp_path / "nothing"
    assert main(["reproduce", "fig5", "--npop", "1", "--seeds", "2", "--out", str(out)]) == 1
    assert "population size must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_echoes_its_default_seed_count(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["reproduce", "fig6", "--npop", "4", "--max-gen", "1", "--out", str(out)]) == 0
    assert "seeds = 1000" in capsys.readouterr().out.splitlines()
    meta, _, rows = read_table(out / "fig6_runs.csv")
    assert meta["seeds"] == "1000" and len(rows) == 1000


def test_reproduce_echoes_the_populations_it_sweeps(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["reproduce", "fig5", "--seeds", "2", "--max-gen", "5", "--out", str(out)]) == 0
    echoed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("npop = ")]
    swept = {read_table(table)[0]["npop"] for table in out.glob("*.csv")}
    assert sorted(swept, key=int) == ["10", "50", "100"]
    assert echoed == ["npop = " + ",".join(sorted(swept, key=int))]


def test_sweep_outputs_and_worker_determinism(tmp_path):
    args = ["sweep", "--npop", "16", "--seeds", "4", "--base-seed", "3"]
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--out", str(out2), "--workers", "2"]) == 0
    for name in ("runs.csv", "stats.csv", "alpha_phi.csv"):
        assert read_bytes(out1 / name) == read_bytes(out2 / name), name
    # a clean sweep writes no failures table
    assert sorted(os.listdir(out1)) == sorted(os.listdir(out2)) == [
        "alpha_phi.csv", "runs.csv", "stats.csv"]

    meta, header, rows = read_table(out1 / "runs.csv")
    assert header == ["run_id", "seed", "q_c", "epsilon_opt", "best_fitness",
                      "termination_reason", "best_genome"]
    assert [r["seed"] for r in rows] == ["3", "4", "5", "6"]
    assert "workers" not in meta and "out" not in meta

    _, _, alpha_rows = read_table(out1 / "alpha_phi.csv")
    assert [r["run_id"] for r in alpha_rows] == ["0", "1", "2", "3"]
    for row in alpha_rows:
        assert 0.0 <= float(row["alpha"]) <= 1.0
        assert -math.pi < float(row["phi"]) <= math.pi


def _qutrit_task():
    """A d = 3 task: two trainable slots around a phase oracle, three pairs."""
    w = np.exp(2j * np.pi / 3)
    oracles = {x: np.diag([1, w**k, w ** (2 * k)]) for k, x in enumerate("abc")}
    targets = {x: np.eye(3)[k] for k, x in enumerate("abc")}
    slots = (tasks.TrainableSlot(1), tasks.OracleSlot(), tasks.TrainableSlot(2))
    return tasks.TaskSpec(3, slots, np.eye(3)[0], tuple(targets.items()),
                          {"oracle": oracles}, name="qutrit")


def test_sweep_on_a_qutrit_task_file(tmp_path):
    # the genome shape of a d = 3 search comes from the task alone
    task_path = tmp_path / "qutrit.json"
    tasks.save_task(_qutrit_task(), task_path)
    task = tasks.load_task(task_path)
    out = tmp_path / "o"
    rc = main(["sweep", "--task", str(task_path), "--npop", "8", "--depth", "10",
               "--seeds", "3", "--max-gen", "4", "--out", str(out)])
    assert rc == 0
    _, _, rows = read_table(out / "runs.csv")
    assert len(rows) == 3
    codec = genome.CodecConfig(depth=10)
    for row in rows:
        best = genome.genome_from_field(row["best_genome"])
        assert best.shape == (2, 8)  # d*d - 1 = 8 chromosomes per slot
        score = tasks.population_fitness(task, genome.decode(best, codec))
        assert float(score) == float(row["best_fitness"])
    assert (out / "stats.csv").exists()
    assert not (out / "alpha_phi.csv").exists()


def _usable_cpus(monkeypatch, n):
    """Let this process use ``n`` CPUs, as the pool counts them, on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_pool_is_capped_at_the_seed_count(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 4)  # so that 3 workers fork 2 children on a 2-CPU host
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    args = ["sweep", "--npop", "10", "--base-seed", "5"]

    def sweep(seeds, workers):
        out = tmp_path / f"s{seeds}w{workers}"
        assert main(args + ["--seeds", str(seeds), "--workers", str(workers),
                            "--out", str(out)]) == 0
        return out

    # the command's own process is one of the workers, so N workers fork N - 1
    pooled = {2: sweep(2, 3)}
    assert len(forks) == 1
    pooled[6] = sweep(6, 3)
    assert len(forks) == 3
    sweep(1, 3)
    assert len(forks) == 3  # one worker forks no child
    assert set(forks) == {os.getpid()}  # no child forks
    for seeds, out in pooled.items():
        serial = sweep(seeds, 1)
        for name in ("runs.csv", "stats.csv", "alpha_phi.csv"):
            assert read_bytes(out / name) == read_bytes(serial / name), (seeds, name)
    # and at the CPUs this process may use: 8 workers on 2 CPUs fork one child
    _usable_cpus(monkeypatch, 2)
    del forks[:]
    capped = ["sweep", "--npop", "4", "--seeds", "8"]
    assert main(capped + ["--workers", "8", "--out", str(tmp_path / "c8")]) == 0
    assert len(forks) == 1
    assert main(capped + ["--workers", "1", "--out", str(tmp_path / "c1")]) == 0
    for name in ("runs.csv", "stats.csv", "alpha_phi.csv"):
        assert read_bytes(tmp_path / "c8" / name) == read_bytes(tmp_path / "c1" / name), name


def test_a_pool_without_os_fork_fails_before_any_run(tmp_path, monkeypatch, capsys):
    # where os.fork is missing (Windows), more than one worker is a config
    # error before any run; one worker needs no fork and still runs
    ran = []
    real_run = cli.ga_run

    def counted(ga_cfg, task, seed):
        ran.append(seed)
        return real_run(ga_cfg, task, seed)

    monkeypatch.setattr(cli, "ga_run", counted)
    monkeypatch.delattr(os, "fork")
    _usable_cpus(monkeypatch, 4)
    args = ["sweep", "--npop", "6", "--seeds", "3"]
    assert main(args + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 1
    assert "error: config key 'workers': 2 processes need os.fork" in capsys.readouterr().err
    assert ran == [] and not (tmp_path / "w2").exists()
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert ran == [1, 2, 3] and (tmp_path / "w1" / "runs.csv").exists()


def test_every_process_claims_and_each_run_index_runs_once(tmp_path, monkeypatch):
    # the first six runs sleep, so that the children start before the parent
    # has claimed every index; the rest are instant, so that three processes
    # on two cores race for the counter.  Each run logs its seed, since a
    # lost counter update would run an index twice, not skip one.
    log = tmp_path / "claims"

    def whose(ga_cfg, task, seed):
        time.sleep(0.05 if seed < 6 else 0)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{seed}\n")
        return seed, os.getpid()

    monkeypatch.setattr(cli, "ga_run", whose)
    _usable_cpus(monkeypatch, 4)
    results = cli.run_many(None, None, range(2000), 3)
    assert all(status == "ok" for status, _ in results)
    assert [seed for _, (seed, _) in results] == list(range(2000))
    assert sorted(map(int, log.read_text().split())) == list(range(2000))
    pids = {pid for _, (_, pid) in results}
    assert os.getpid() in pids and len(pids) == 3


def test_a_dead_child_loses_only_its_own_runs(tmp_path, monkeypatch, capsys):
    # the child dies in its first run; the parent sleeps before each of its
    # runs, so that the child surely claims one before the parent drains them all
    real_run, me = cli.ga_run, os.getpid()

    def fragile(ga_cfg, task, seed):
        if os.getpid() != me:
            os._exit(70)
        time.sleep(0.05)
        return real_run(ga_cfg, task, seed)

    monkeypatch.setattr(cli, "ga_run", fragile)
    out = tmp_path / "o"
    assert main(["sweep", "--npop", "10", "--seeds", "8", "--workers", "2",
                 "--out", str(out)]) == 2  # a lost run flags the sweep
    _, _, rows = read_table(out / "runs.csv")
    reasons = [r["termination_reason"] for r in rows]
    assert len(reasons) == 8 and reasons.count("error") == 1, reasons
    lost = rows[reasons.index("error")]["seed"]
    assert f"warning: seed {lost}: worker process died" in capsys.readouterr().err
    _, _, alpha_rows = read_table(out / "alpha_phi.csv")
    assert len(alpha_rows) == 7
    meta, header, failures = read_table(out / "failures.csv")
    assert header == ["run_id", "seed", "error"] and meta["seeds"] == "8"
    assert failures == [{"run_id": str(int(lost) - 1), "seed": lost,
                         "error": "worker process died"}]


@pytest.mark.parametrize("workers", [3, 4])
def test_a_dead_child_spares_its_siblings(tmp_path, monkeypatch, capsys, workers):
    # The child that wins the flag file dies in its first run, but only once
    # another has finished a run and is still draining (survivors sleep 20 ms
    # a run; the parent 50 ms).  The survivors' runs must still arrive: only
    # the dead child's one claimed run is lost.
    real_run, me = cli.ga_run, os.getpid()
    flag, ran = tmp_path / "dies", tmp_path / "ran"

    def fragile(ga_cfg, task, seed):
        if os.getpid() == me:
            time.sleep(0.05)
            return real_run(ga_cfg, task, seed)
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:  # a survivor
            time.sleep(0.02)
            record = real_run(ga_cfg, task, seed)
            ran.touch()
            return record
        deadline = time.monotonic() + 30
        while not ran.exists() and time.monotonic() < deadline:
            time.sleep(0.002)
        os._exit(70)

    monkeypatch.setattr(cli, "ga_run", fragile)
    _usable_cpus(monkeypatch, 4)
    out = tmp_path / "o"
    assert main(["sweep", "--npop", "10", "--seeds", "16", "--workers", str(workers),
                 "--out", str(out)]) == 2
    assert ran.exists()
    _, _, rows = read_table(out / "runs.csv")
    reasons = [r["termination_reason"] for r in rows]
    assert len(reasons) == 16 and reasons.count("error") == 1, reasons
    lost = rows[reasons.index("error")]["seed"]
    err = capsys.readouterr().err
    assert err.count("worker process died") == 1
    assert f"warning: seed {lost}: worker process died" in err


def test_a_child_killed_while_sending_loses_only_its_own_runs(monkeypatch):
    # the child runs its share, then dies inside its message: it writes the
    # pickle of its results cut short (no byte, half of it, all but the last)
    # to its pipe and exits.  The parent's runs and the merge must survive it.
    def slow(ga_cfg, task, seed):
        time.sleep(0.005)
        return seed

    monkeypatch.setattr(cli, "ga_run", slow)
    for keep in (lambda n: 0, lambda n: n // 2, lambda n: n - 1):
        def cut_short(done, sink, keep=keep):  # only a child sends: the parent reads
            data = pickle.dumps(done)
            os.write(sink.fileno(), data[:keep(len(data))])
            os._exit(70)

        monkeypatch.setattr(pickle, "dump", cut_short)
        results = cli.run_many(None, None, range(40), 2)
        lost = [i for i, (status, _) in enumerate(results) if status == "error"]
        assert 0 < len(lost) < 40, results
        assert all(results[i] == ("error", (None, "worker process died")) for i in lost)
        assert all(results[i] == ("ok", i) for i in set(range(40)) - set(lost))


def test_a_child_that_dies_between_claims_stalls_nobody(tmp_path):
    # Three processes, 20 ms a run.  The first child to reach its second run
    # claims it, waits until the parent has finished a run (which the parent
    # finishes only then), and exits before its next claim, while most
    # tickets are still unread.  The other two must read the rest: only the
    # dead child's two runs are lost.  In a fresh process, so that a wait
    # without end fails this test by its timeout instead of hanging it.
    script = textwrap.dedent("""
        import os, sys, time
        from evogate import cli
        out, tmp = sys.argv[1], sys.argv[2]
        real_run, real_drain, me = cli.ga_run, cli._drain, os.getpid()
        tickets, mine = [], []

        def wait_for(name):
            while not os.path.exists(os.path.join(tmp, name)):
                time.sleep(0.002)

        def drain(fd, *args):
            tickets.append(fd)
            return real_drain(fd, *args)

        def fragile(ga_cfg, task, seed):
            time.sleep(0.02)
            if os.getpid() == me:
                wait_for("dies")
            elif mine:
                try:
                    os.close(os.open(os.path.join(tmp, "dies"),
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                except FileExistsError:  # the surviving child
                    pass
                else:
                    wait_for("ran")
                    read = os.lseek(tickets[0], 0, os.SEEK_CUR) // 8
                    with open(os.path.join(tmp, "lost"), "w") as fh:
                        fh.write(f"{read} {mine[0]} {seed}")
                    os._exit(70)
            mine.append(seed)
            record = real_run(ga_cfg, task, seed)
            if os.getpid() == me:
                open(os.path.join(tmp, "ran"), "a").close()
            return record

        os.sched_getaffinity = lambda pid: set(range(4))
        cli._drain, cli.ga_run = drain, fragile
        sys.exit(cli.main(["sweep", "--npop", "10", "--seeds", "24", "--workers", "3",
                           "--out", out]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(evogate.__file__).parents[1])}
    out, serial = tmp_path / "o", tmp_path / "serial"
    proc = subprocess.run([sys.executable, "-c", script, str(out), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    read, *lost = (tmp_path / "lost").read_text().split()
    assert int(read) < 12 and len(lost) == 2, (read, lost)
    for seed in lost:
        assert f"warning: seed {seed}: worker process died" in proc.stderr
    assert proc.stderr.count("worker process died") == 2
    assert main(["sweep", "--npop", "10", "--seeds", "24", "--out", str(serial)]) == 0
    _, _, rows = read_table(out / "runs.csv")
    _, _, expected = read_table(serial / "runs.csv")
    assert len(rows) == len(expected) == 24
    for row, want in zip(rows, expected):
        if row["seed"] in lost:
            assert row["termination_reason"] == "error" and row["q_c"] == "0", row
        else:
            assert row == want
    _, _, failures = read_table(out / "failures.csv")
    assert failures == [{"run_id": str(int(seed) - 1), "seed": seed,
                         "error": "worker process died"} for seed in sorted(lost, key=int)]


def test_run_many_starts_no_thread_and_leaves_no_child(tmp_path, monkeypatch):
    # the parent forks and runs with no helper thread, and no child, pipe or
    # ticket file outlives the call, whether it returns, the parent's own
    # drain raises or a fork fails, even while the raised exception (and so
    # its traceback's frames) is still referenced; when the drain raises,
    # each child stops after its current run
    import tempfile
    import threading

    class Stop(BaseException):
        pass

    def open_fds():  # None where /proc/self/fd does not exist
        with suppress(FileNotFoundError):
            return len(os.listdir("/proc/self/fd"))

    me, before, threads, fds = os.getpid(), threading.active_count(), [], open_fds()
    made, real_file, log = [], tempfile.TemporaryFile, tmp_path / "after_stop"

    def ticket_file(*args, **kwargs):  # kept alive here, so only a close frees its fd
        made.append(real_file(*args, **kwargs))
        return made[-1]

    def counted(ga_cfg, task, seed):
        if os.getpid() == me:
            threads.append(threading.active_count())
            if seed == "stop":
                raise Stop
        elif seed == "stop":
            with open(log, "a", encoding="utf-8") as fh:
                fh.write("run\n")
            time.sleep(0.05)
        time.sleep(0.005)
        return seed

    monkeypatch.setattr(cli, "ga_run", counted)
    monkeypatch.setattr(tempfile, "TemporaryFile", ticket_file)

    def nothing_left():  # no child to reap and no descriptor left open
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    _usable_cpus(monkeypatch, 4)
    results = cli.run_many(None, None, list(range(40)), 3)
    assert [r for _, r in results] == list(range(40))
    nothing_left()
    with pytest.raises(Stop) as raised:
        cli.run_many(None, None, ["stop"] * 40, 3)
    assert raised.value.__traceback__ is not None  # still holds run_many's frame
    nothing_left()
    real_fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(len(forks))
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "fork failed")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="fork failed") as raised:
        cli.run_many(None, None, list(range(40)), 3)
    nothing_left()
    assert len(made) == 3 and all(f.closed for f in made)
    # each child finishes the run it is in, and may have begun one before the parent raised
    after_stop = log.read_text().split() if log.exists() else []
    assert len(after_stop) <= 4, after_stop
    assert threads and set(threads) == {before}, (before, threads)


def test_sweep_records_failures_and_continues(tmp_path, monkeypatch):
    import evogate.cli as cli_mod

    real_run = cli_mod.ga_run

    def flaky(ga_cfg, task, seed):
        if seed == 2:
            raise RuntimeError("forced failure")
        return real_run(ga_cfg, task, seed)

    monkeypatch.setattr(cli_mod, "ga_run", flaky)
    out = tmp_path / "flaky"
    rc = main(["sweep", "--npop", "12", "--seeds", "3", "--base-seed", "1",
               "--out", str(out)])
    assert rc == 2  # two runs still succeeded; the failed one flags the sweep
    _, _, rows = read_table(out / "runs.csv")
    assert [r["termination_reason"] for r in rows] == ["converged", "error", "converged"]
    assert rows[1]["epsilon_opt"] == "nan"
    _, _, stats_rows = read_table(out / "stats.csv")
    assert stats_rows  # aggregates cover the surviving runs
    meta, header, failures = read_table(out / "failures.csv")
    assert header == ["run_id", "seed", "error"] and meta["npop"] == "12"
    assert failures == [{"run_id": "1", "seed": "2", "error": "RuntimeError: forced failure"}]


def test_failures_table_keeps_one_line_per_run(tmp_path, monkeypatch, capsys):
    # each line break in a message is written as its two-character escape,
    # so the error cell stays on its run's line, and a cell holding ',' or
    # '"' is quoted, so the row keeps its three cells; the warning keeps the
    # message as raised
    def failing(ga_cfg, task, seed):
        raise ValueError(f'seed {seed}\nis "bad",\r really')

    monkeypatch.setattr(cli, "ga_run", failing)
    out = tmp_path / "o"
    assert main(["reproduce", "fig6", "--npop", "12", "--seeds", "2", "--out", str(out)]) == 1
    assert 'warning: seed 1: seed 1\nis "bad",\r really' in capsys.readouterr().err
    lines = read_bytes(out / "fig6_failures.csv").decode("utf-8").split("\n")
    assert lines[-4:] == ["run_id,seed,error",
                          '0,1,"ValueError: seed 1\\nis ""bad"",\\r really"',
                          '1,2,"ValueError: seed 2\\nis ""bad"",\\r really"',
                          ""]
    assert list(csv.reader(lines[-4:-1])) == [
        ["run_id", "seed", "error"],
        ["0", "1", 'ValueError: seed 1\\nis "bad",\\r really'],
        ["1", "2", 'ValueError: seed 2\\nis "bad",\\r really']]


def test_sweep_all_failures_exits_nonzero(tmp_path, monkeypatch, capsys):
    import evogate.cli as cli_mod

    def always_fail(ga_cfg, task, seed):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(cli_mod, "ga_run", always_fail)
    out = tmp_path / "dead"
    rc = main(["sweep", "--npop", "12", "--seeds", "2", "--out", str(out)])
    assert rc == 1
    assert "error: all runs failed for npop=12" in capsys.readouterr().err
    _, _, rows = read_table(out / "runs.csv")
    assert all(r["termination_reason"] == "error" for r in rows)
    assert not (out / "stats.csv").exists()
    _, header, failures = read_table(out / "failures.csv")  # written before the error
    assert header == ["run_id", "seed", "error"]
    assert [f["error"] for f in failures] == ["RuntimeError: forced failure"] * 2


def test_sweep_horizon_pads_stats(tmp_path):
    out = tmp_path / "padded"
    rc = main([
        "sweep", "--npop", "12", "--seeds", "3", "--horizon", "40",
        "--out", str(out),
    ])
    assert rc == 0
    _, _, rows = read_table(out / "stats.csv")
    assert len(rows) == 40
    assert all(r["n"] == "3" for r in rows)


# -------------------------------------------------------------------- fit

def write_points(path, eps, q, eps_col="epsilon", q_col="q"):
    lines = ["# synthetic", f"{eps_col},{q_col}"]
    lines += [f"{float(e)!r},{float(v)!r}" for e, v in zip(eps, q)]
    path.write_text("\n".join(lines) + "\n")


def test_fit_recovers_synthetic_model(tmp_path, capsys):
    eps = np.linspace(0.0, 0.2, 30)
    q = 16.0 * np.exp(-22.0 * eps) + 15.0
    src = tmp_path / "points.csv"
    write_points(src, eps, q)
    out = tmp_path / "fit_out"
    rc = main(["fit", str(src), "--bins", "0", "--out", str(out)])
    assert rc == 0
    assert ", identified: a = " in capsys.readouterr().out
    meta, header, rows = read_table(out / "fit.csv")
    assert header == ["a", "b", "c", "a_err", "b_err", "c_err", "rss", "converged"]
    row = rows[0]
    assert abs(float(row["a"]) - 16.0) / 16.0 <= 1e-6
    assert abs(float(row["b"]) - 22.0) / 22.0 <= 1e-6
    assert abs(float(row["c"]) - 15.0) / 15.0 <= 1e-6
    assert row["converged"] == "1"
    assert meta["bins"] == "0"


@pytest.mark.parametrize("variant", ["quoted labels", "byte-order mark"])
def test_fit_reads_any_rfc4180_table(tmp_path, capsys, variant):
    # the same points fit alike from a table whose extra column the csv
    # module quotes ("a,b", "d""e"), or from one led by a byte-order mark
    eps = np.linspace(0.0, 0.2, 30)
    q = 16.0 * np.exp(-22.0 * eps) + 15.0 + 0.05 * np.sin(40.0 * eps)
    write_points(tmp_path / "plain.csv", eps, q)
    src = tmp_path / "variant.csv"
    if variant == "quoted labels":
        labels = ["a,b", 'd"e', "f"] * 10
        with open(src, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([("label", "epsilon", "q"),
                                      *zip(labels, eps.tolist(), q.tolist())])
        assert '"a,b",' in src.read_text() and '"d""e",' in src.read_text()
    else:
        lines = ["epsilon,q"] + [f"{e!r},{v!r}" for e, v in zip(eps.tolist(), q.tolist())]
        src.write_bytes(("\ufeff" + "\n".join(lines) + "\n").encode("utf-8"))
    verdicts, fitted = [], []
    for name in ("plain.csv", "variant.csv"):
        out = tmp_path / f"fit_{name}"
        assert main(["fit", str(tmp_path / name), "--bins", "0", "--out", str(out)]) == 0
        verdicts.append(capsys.readouterr().out.splitlines()[-1])
        meta, _, rows = read_table(out / "fit.csv")
        fitted.append((meta["n_points"], rows))
    assert verdicts[0] == verdicts[1] and verdicts[0].startswith("fit: converged after")
    assert fitted[0] == fitted[1] and fitted[0][0] == "30"


def test_fit_applies_quantile_binning(tmp_path):
    rng = np.random.default_rng(0)
    eps = np.sort(rng.uniform(0, 0.2, 200))
    q = 16.0 * np.exp(-22.0 * eps) + 15.0 + rng.normal(0, 0.1, eps.size)
    src = tmp_path / "noisy.csv"
    write_points(src, eps, q)
    out = tmp_path / "fit_binned"
    rc = main(["fit", str(src), "--bins", "20", "--out", str(out)])
    assert rc == 0
    meta, _, rows = read_table(out / "fit.csv")
    assert meta["bins"] == "20"
    assert meta["n_points"] == "20"
    assert abs(float(rows[0]["b"]) - 22.0) <= 3.0


def test_fit_flags_unidentified_decay(tmp_path, capsys):
    # a rising curve fits exactly (converged) with b = -5: no decay rate
    eps = np.linspace(0.0, 0.2, 30)
    src = tmp_path / "rising.csv"
    write_points(src, eps, 16.0 * np.exp(5.0 * eps) + 15.0)
    out = tmp_path / "fit_rising"
    assert main(["fit", str(src), "--bins", "0", "--out", str(out)]) == 2
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("fit: converged after") and ", NOT identified: " in line
    _, _, rows = read_table(out / "fit.csv")
    assert rows[0]["converged"] == "1"
    assert abs(float(rows[0]["b"]) + 5.0) <= 1e-6


def test_fit_rejects_negative_bins(tmp_path, capsys):
    src = tmp_path / "points.csv"
    write_points(src, np.linspace(0.0, 0.2, 30), np.linspace(30.0, 15.0, 30))
    out = tmp_path / "o"
    assert main(["fit", str(src), "--bins", "-3", "--out", str(out)]) == 1
    assert "--bins must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_fit_too_few_points(tmp_path):
    src = tmp_path / "three.csv"
    write_points(src, [0.0, 0.1, 0.2], [30.0, 20.0, 16.0])
    assert main(["fit", str(src), "--bins", "0", "--out", str(tmp_path / "o")]) == 1


def test_fit_reads_sweep_summaries(tmp_path, capsys):
    out = tmp_path / "sweep_for_fit"
    assert main(["sweep", "--npop", "20", "--seeds", "6", "--out", str(out)]) == 0
    eps, q = cli.read_points(out / "runs.csv")
    assert eps.shape == q.shape == (6,)
    assert np.all(q >= 1)
    # fit.csv names the table it fitted
    fit_dir = tmp_path / "fit"
    assert main(["fit", str(out / "runs.csv"), "--bins", "0", "--out", str(fit_dir)]) in (0, 2)
    assert "# source = runs.csv" in (fit_dir / "fit.csv").read_text().splitlines()
    # a run stopped at the generation cap is no point, as in reproduce fig7:
    # its q_c is the cap's, not the run's
    capped = tmp_path / "capped"
    capsys.readouterr()
    assert main(["sweep", "--npop", "10", "--seeds", "30", "--max-gen", "15",
                 "--out", str(capped)]) == 0
    _, _, rows = read_table(capped / "runs.csv")
    done = [r for r in rows if r["termination_reason"] == "converged"]
    assert 4 <= len(done) < len(rows)
    # stdout counts the cap stops, which the exit code does not flag
    assert (f"sweep: 30/30 runs succeeded, {len(rows) - len(done)} at the generation cap, "
            f"results in {capped}") in capsys.readouterr().out.splitlines()
    eps, q = cli.read_points(capped / "runs.csv")
    assert eps.tolist() == [float(r["epsilon_opt"]) for r in done]
    assert q.tolist() == [float(r["q_c"]) for r in done]
    assert main(["fit", str(capped / "runs.csv"), "--bins", "0", "--out", str(fit_dir)]) in (0, 2)
    assert f"# n_points = {len(done)}" in (fit_dir / "fit.csv").read_text().splitlines()


def test_fit_rejects_a_short_row_and_joined_tables(tmp_path, capsys):
    # neither table may be fitted in part: a cut-short row 7 used to end the
    # table after 6 points, and a second table's header used to end the first
    out = tmp_path / "sweep"
    assert main(["sweep", "--npop", "10", "--seeds", "12", "--out", str(out)]) == 0
    table = (out / "runs.csv").read_text()
    lines = table.splitlines(keepends=True)
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    lines[first + 6] = lines[first + 6].rsplit(",", 2)[0] + "\n"
    (out / "cut.csv").write_text("".join(lines))
    (out / "joined.csv").write_text(table + table)
    capsys.readouterr()
    assert main(["fit", str(out / "cut.csv"), "--out", str(tmp_path / "o")]) == 1
    assert "cut.csv: data row 7: expected 7 cells, got 5" in capsys.readouterr().err
    assert main(["fit", str(out / "joined.csv"), "--out", str(tmp_path / "o")]) == 1
    assert "joined.csv: data row 13: could not convert" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_read_points_skips_failed_runs_and_rejects_unparsable_values(tmp_path):
    src = tmp_path / "points.csv"
    src.write_text("epsilon,q\n0.1,20\nnan,0\n0.2,18\n")
    eps, q = cli.read_points(src)
    assert eps.tolist() == [0.1, 0.2] and q.tolist() == [20.0, 18.0]
    src.write_text("epsilon,q\n0.1,20\n0.2,x\n")
    with pytest.raises(ValueError, match="data row 2: could not convert"):
        cli.read_points(src)


def test_fit_missing_input(tmp_path):
    assert main(["fit", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("text, message", [
    ("# metadata only\n# npop = 10\n", "no data rows"),
    ("epsilon,q\nnan,3\n0.1,nan\nnan,nan\n", "no usable data points"),
    # the csv module refuses a cell this long: an error line, not a traceback
    pytest.param("epsilon,q\n0.1," + "9" * (csv.field_size_limit() + 1) + "\n",
                 "field larger than field limit", id="cell over the csv field limit"),
])
def test_fit_without_points_fails(tmp_path, capsys, text, message):
    src = tmp_path / "points.csv"
    src.write_text(text)
    out = tmp_path / "o"
    assert main(["fit", str(src), "--out", str(out)]) == 1
    assert f"{src}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_input_whose_name_cannot_be_written_fails_before_the_fit(tmp_path, monkeypatch,
                                                                     capfd):
    # the input's name goes into fit.csv's metadata as `source`; a lone
    # surrogate there has no UTF-8 form and a newline would end its line
    # early, so the fit must not start
    monkeypatch.chdir(tmp_path)
    for name, problem in [(os.fsdecode(b"r\xff.csv"), "cannot be written as UTF-8"),
                          ("r\nq.csv", "holds a line break")]:
        write_points(Path(name), np.linspace(0.0, 0.2, 30), np.linspace(30.0, 15.0, 30))
        assert main(["fit", name, "--bins", "0", "--out", "o"]) == 1
        assert f"error: input name {name!r} {problem}" in capfd.readouterr().err
        assert not (tmp_path / "o").exists()


# -------------------------------------------------------------- reproduce

def test_reproduce_fig5_smoke(tmp_path):
    out = tmp_path / "fig5"
    rc = main([
        "reproduce", "fig5", "--seeds", "3", "--horizon", "30", "--out", str(out),
    ])
    assert rc == 0
    for npop in (10, 50, 100):
        stats = out / f"fig5_npop{npop}_stats.csv"
        assert stats.exists()
        _, _, rows = read_table(stats)
        assert len(rows) == 30
        mean = np.array([float(r["mean_fitness"]) for r in rows])
        assert mean[-1] >= mean[0]  # the curve climbs


def test_reproduce_fig6_smoke(tmp_path):
    out = tmp_path / "fig6"
    rc = main(["reproduce", "fig6", "--seeds", "2", "--npop", "30", "--out", str(out)])
    assert rc == 0
    _, _, rows = read_table(out / "fig6_alpha_phi.csv")
    assert len(rows) == 2


def test_reproduce_fig7_smoke(tmp_path):
    out = tmp_path / "fig7"
    rc = main([
        "reproduce", "fig7", "--seeds", "8", "--npop", "40", "--out", str(out),
    ])
    assert rc in (0, 2)  # tiny ensembles may flag a non-converged fit
    assert (out / "fig7_npop40_runs.csv").exists()
    assert (out / "fig7_npop40_fit.csv").exists()


def test_reproduce_fig7_fits_the_points_that_fit_reads(tmp_path, capsys):
    # fig7 fits what `evogate fit` reads back from the runs table it wrote:
    # the converged runs only, with the same fit in the same bytes and the
    # same verdict line behind each one's label
    out, fit_dir = tmp_path / "fig7", tmp_path / "fit"
    fig7_rc = main(["reproduce", "fig7", "--npop", "10", "--seeds", "30", "--max-gen", "15",
                    "--out", str(out)])
    assert fig7_rc in (0, 2)
    fig7_out = capsys.readouterr().out.splitlines()
    assert (f"fig7: npop=10: 30/30 runs succeeded, 25 at the generation cap, results in {out}"
            in fig7_out)
    assert main(["fit", str(out / "fig7_npop10_runs.csv"), "--out", str(fit_dir)]) == fig7_rc
    fit_line = capsys.readouterr().out.splitlines()[-1]
    assert fit_line.startswith("fit: ") and " iterations, " in fit_line
    assert fig7_out[-1] == "fig7: npop=10: " + fit_line  # fig7's label, then fit's line
    fig7_rows = read_bytes(out / "fig7_npop10_fit.csv").splitlines()
    fit_rows = read_bytes(fit_dir / "fit.csv").splitlines()
    assert b"# n_points = 5" in fig7_rows and b"# n_points = 5" in fit_rows
    assert fig7_rows[-2:] == fit_rows[-2:]  # the header and the fitted row


def test_reproduce_all_failures_exits_nonzero(tmp_path, capsys, monkeypatch):
    import evogate.cli as cli_mod

    def always_fail(ga_cfg, task, seed):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(cli_mod, "ga_run", always_fail)
    out = tmp_path / "dead"
    assert main(["reproduce", "fig6", "--npop", "12", "--seeds", "3", "--out", str(out)]) == 1
    assert "error: all runs failed for npop=12" in capsys.readouterr().err
    _, _, rows = read_table(out / "fig6_runs.csv")
    assert [(r["seed"], r["termination_reason"]) for r in rows] == [
        ("1", "error"), ("2", "error"), ("3", "error")]
    assert not (out / "fig6_stats.csv").exists()


def test_reproduce_fig7_skips_a_fit_without_enough_points(tmp_path, capsys):
    # three seeds give at most three converged points, too few for any fit:
    # each population says so and the later populations still run
    out = tmp_path / "fig7"
    assert main(["reproduce", "fig7", "--seeds", "3", "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    for npop in (100, 200, 300, 400):
        assert (out / f"fig7_npop{npop}_runs.csv").exists()
        assert not (out / f"fig7_npop{npop}_fit.csv").exists()
        assert any(line.startswith(f"fig7: npop={npop}: fit skipped: need at least 4 points")
                   for line in lines), lines


# ------------------------------------------------------------ file helpers

def test_fmt_is_round_trip_stable():
    values = [math.pi, 1.0, 1e-300, 0.1, 2.0 / 3.0]
    for v in values:
        assert float(files.fmt(v)) == v
    assert files.fmt(True) == "1"
    assert files.fmt(np.int64(7)) == "7"


def test_read_points_requires_known_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        cli.read_points(bad)


def test_read_table_inverts_write_csv(tmp_path):
    # each cell reads back as files._cell wrote it (a line break as its
    # two-character escape), one row per written row; U+2028 and U+0085 are
    # line breaks to str.splitlines, not to a CSV row
    pieces = [",", '"', '""', "\n", "\r", " ", "  ", "", "x", "0.5", "é", "日本",
              "\u2028", "\x85", "\x0c"]
    path = tmp_path / "cells.csv"
    for seed in range(20):
        rnd = random.Random(seed)
        n_cols = 2 + seed % 4
        rows = [["".join(rnd.choices(pieces, k=rnd.randrange(5))) for _ in range(n_cols)]
                for _ in range(50)]
        header = ",".join(f"c{j}" for j in range(n_cols))
        files.write_csv(path, {"seed": seed}, (header, rows))
        table = files.read_table(path)
        assert table[0] == header.split(",")
        assert table[1:] == [[c.replace("\n", "\\n").replace("\r", "\\r") for c in row]
                             for row in rows], seed


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 form
        files.write_text(path, "\udcff")
    assert not path.exists()
    assert not (tmp_path / "x.csv.tmp").exists()


# ----------------------------------------------------------- import hygiene

def test_a_run_imports_nothing(tmp_path):
    # Forked pool workers share whatever the CLI parent imported; a module
    # first loaded inside a run costs every worker its load in its first
    # run.  This test's own process has loaded them all, so ask a fresh one.
    script = textwrap.dedent("""
        import contextlib, io, json, os, sys
        from evogate import cli, ga
        cli.build_parser()  # argparse's gettext loads locale here, before any fork
        before = set(sys.modules)
        task = cli.resolve_task("deutsch")
        ga.run(cli.make_ga_config(cli.ExperimentConfig(npop=6, max_gen=5), task), task, 1)
        out = sys.argv[1]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["sweep", "--npop", "6", "--seeds", "8", "--workers", "1",
                               "--out", out]),
                     cli.main(["fit", os.path.join(out, "runs.csv"), "--bins", "4",
                               "--out", out])]
        print(json.dumps({"codes": codes, "new": sorted(set(sys.modules) - before)}))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(evogate.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"][0] == 0 and result["codes"][1] in (0, 2), result
    assert result["new"] == [], f"imported during a run: {result['new']}"


def test_no_command_loads_a_process_pool_module(tmp_path):
    # a pooled sweep forks with os.fork and pipes: multiprocessing would cost
    # every interpreter about 1 MB and 10 ms, so no command imports it, nor
    # concurrent.futures
    script = textwrap.dedent("""
        import contextlib, io, json, os, sys
        from evogate import cli
        out = sys.argv[1]
        common = ["--npop", "6", "--out", out]
        commands = {
            "run": ["run", *common],
            "sweep --workers 1": ["sweep", "--seeds", "8", "--workers", "1", *common],
            "fit": ["fit", os.path.join(out, "runs.csv"), "--bins", "4", "--out", out],
            "sweep --seeds 1 --workers 3": ["sweep", "--seeds", "1", "--workers", "3", *common],
            "sweep --workers 2": ["sweep", "--seeds", "4", "--workers", "2", *common],
        }
        seen = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in commands.items():
                code = cli.main(argv)
                seen[name] = [code, [m for m in ("concurrent.futures", "multiprocessing")
                                     if m in sys.modules]]
        print(json.dumps(seen))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(evogate.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(proc.stdout)
    assert all(code in (0, 2) for code, _ in seen.values()), seen
    assert {name: loaded for name, (_, loaded) in seen.items()} == dict.fromkeys(seen, [])
