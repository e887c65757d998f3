"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv, cwd: Path):
    import qgame.cli

    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            rc = qgame.cli.main(list(argv))
    finally:
        os.chdir(old)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def smoke_jobs(tmp_path_factory):
    """Smoke-size jobs of every workload with their real outputs."""
    done = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        for job in workloads.build(name, 3, work, ROOT / "games", smoke=True):
            rc, out = run_cli(job.argv, work)
            csv = (work / job.spec["csv"]).read_text() if job.spec.get("csv") else None
            done[job.id] = (job, work, rc, out, csv)
    return done


def test_every_smoke_output_passes_the_checker(smoke_jobs):
    for job_id, (job, work, rc, out, csv) in smoke_jobs.items():
        assert check.check_job(job, work, rc, out, csv) == [], job_id


def _bump(value: str) -> str:
    """`value` with its third digit changed."""
    k = [i for i, c in enumerate(value) if c.isdigit()][2]
    return value[:k] + str((int(value[k]) + 1) % 10) + value[k + 1 :]


def _bump_field(text: str, line_no: int, col: int, sep: str) -> str:
    lines = text.splitlines()
    fields = lines[line_no].split(sep)
    fields[col] = _bump(fields[col])
    lines[line_no] = sep.join(fields)
    return "\n".join(lines) + "\n"


def _drop_line(text: str, line_no: int) -> str:
    return "\n".join(l for k, l in enumerate(text.splitlines()) if k != line_no) + "\n"


def _long_value_line(text: str, col: int, sep: str) -> int:
    """First line whose field `col` has at least five digits."""
    return next(
        k for k, line in enumerate(text.splitlines())
        if len(line.split(sep)) > col and sum(c.isdigit() for c in line.split(sep)[col]) >= 5
    )


def test_checker_rejects_doctored_ne_outputs(smoke_jobs):
    job, work, rc, out, csv = smoke_jobs["E1"]
    rows = [k for k, line in enumerate(out.splitlines()) if line.startswith("  (")]
    assert rc == 0 and len(rows) > 2
    payoff1 = out.splitlines()[rows[0]].split().index("payoffs") + 1
    row = _long_value_line(out, payoff1, " ")
    doctored = {
        "stdout payoff digit": (rc, _bump_field(out, row, payoff1, " "), csv),
        "csv payoff digit": (rc, out, _bump_field(csv, _long_value_line(csv, 6, ","), 6, ",")),
        "dropped stdout row": (rc, _drop_line(out, rows[1]), csv),
        "dropped csv row": (rc, out, _drop_line(csv, 2)),
        "wrong exit code": (1, out, csv),
        "missing csv": (rc, out, None),
    }
    for what, (bad_rc, bad_out, bad_csv) in doctored.items():
        assert check.check_job(job, work, bad_rc, bad_out, bad_csv), what


def test_checker_rejects_doctored_outputs_of_other_commands(smoke_jobs):
    for job_id in ("I1", "I2", "I4", "I8", "T2"):
        job, work, rc, out, csv = smoke_jobs[job_id]
        assert check.check_job(job, work, 1 - rc if rc in (0, 1) else 0, out, csv), job_id
    job, work, rc, out, csv = smoke_jobs["I1"]
    assert check.check_job(job, work, rc, out.replace("verdict: isomorphic", "verdict: not isomorphic"), csv)
    job, work, rc, out, csv = smoke_jobs["I9"]
    assert check.check_job(job, work, rc, out, _bump_field(csv, _long_value_line(csv, 2, ","), 2, ",")), "surface payoff"
    assert check.check_job(job, work, rc, out, _drop_line(csv, 3)), "surface row"


def test_oracle_payoffs_match_the_library():
    from qgame.ewl import EwlGame, unrestricted_payoffs
    from qgame.games import ClassicalGame
    from qgame.linalg import SU2Params

    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        game = workloads.random_game(rng, n, 2)
        quantum = EwlGame(ClassicalGame(game.labels, game.payoffs))
        for _ in range(5):
            profile = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(n)]
            want = unrestricted_payoffs(quantum, [SU2Params(*p) for p in profile])
            assert np.abs(check.profile_payoffs(game.payoffs, profile) - want).max() < 1e-12


def test_oracle_isomorphisms_find_the_seeded_mapping():
    rng = np.random.default_rng(1)
    game = workloads.random_game(rng, 3, 3)
    eta, phi = workloads.random_mapping(rng, (3, 3, 3))
    assert check.isomorphisms(game, workloads.image_game(game, eta, phi)) == [(eta, phi)]


def _span(i, parent, name, job, start, end):
    return spans.Span(i, parent, name, job, float(start), float(end))


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        _span(2, 1, "linalg.su2", "A", 2, 3),
        _span(1, 0, "search.grid_payoff_tables", "A", 1, 5),
        _span(3, 0, "search.grid_pure_ne", "A", 6, 9),
        _span(0, None, "cli.main", "A", 0, 10),
        _span(4, None, "cli.main", "B", 20, 22),
        _span(5, 4, "ewl.unrestricted_payoffs", "B", 20.5, 21),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0, 4: 1.5, 5: 0.5}
    layers = spans.layer_metrics(tree, dict.fromkeys(spans.COUNTERS, 0))
    assert layers["cli.self_s"] == 4.5
    assert layers["search.tables_s"] == 3.0
    assert layers["linalg.self_s"] == 1.0
    assert layers["ewl.us_per_payoff"] == 0.5e6
    assert sum(layers[m] for m in spans.SELF_METRICS) == 12.0  # both jobs' wall time
    assert spans.job_balance(tree) == 0.0


def test_latencies_scale_each_job_by_the_reference_around_it():
    import run

    def ex(job, seconds):
        return {"job": job, "seconds": seconds}

    slow = 2 * run.REFERENCE_S
    passes = [
        # machine at reference speed: A runs twice, B once
        {"reference": [run.REFERENCE_S] * 3, "executions": [ex("A", 0.05), ex("A", 0.05), ex("B", 0.2)]},
        # machine twice as slow: every job and reference takes twice as long
        {"reference": [slow] * 3, "executions": [ex("A", 0.1), ex("A", 0.1), ex("B", 0.4)]},
        # slow around B only
        {"reference": [run.REFERENCE_S, slow, slow], "executions": [ex("A", 0.05), ex("B", 0.4)]},
    ]
    got = run.latencies(passes, ["A", "B"])
    assert got["B"] == pytest.approx(0.2)
    # A's last run is paired with the mean of a normal and a slow reference
    assert got["A"] == pytest.approx(run.REFERENCE_S * 0.35 / (run.REFERENCE_S * (2 + 4 + 1.5)))


def test_tracer_wraps_callers_and_restores_them(tmp_path):
    import qgame.cli
    import qgame.search

    originals = (qgame.cli.main, qgame.search.grid_payoff_tables, qgame.search.ParamGrid.strategies)
    shutil.copyfile(ROOT / "games" / "pd.game", tmp_path / "pd.game")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.job = "j"
        rc, _ = run_cli(["ne", "pd.game", "--spaces", "alpha", "--grid", "5,9,1"], tmp_path)
    finally:
        tracer.uninstall()
    assert (qgame.cli.main, qgame.search.grid_payoff_tables, qgame.search.ParamGrid.strategies) == originals
    recorded, counters = tracer.take()
    names = {s.name for s in recorded}
    assert {"cli.main", "cli.cmd_ne", "search.grid_payoff_tables", "linalg.su2", "ewl.EwlGame.__init__"} <= names
    assert counters["search.profiles"] == (5 * 8) ** 2
    assert spans.job_balance(recorded) < 1e-9


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso-lift", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
