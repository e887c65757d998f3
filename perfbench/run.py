"""Run one workload of the qgame benchmark and print its metrics.

    python3 perfbench/run.py --workload ne --seed 1 --seconds 45 --trace 0

Run from anywhere inside a source checkout; nothing needs installing.
The runner writes the workload's inputs from the seed, measures the
import of qgame.cli in fresh processes, runs the fixed job list in one
more fresh process (a single closed-loop client) for --seconds, and then
checks every distinct output against independent oracles.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics: passes then alternate between untraced
and traced, and the traced ones record spans at each module's entry
points. The last line of stdout is the JSON result; the lines before it
are the same numbers for people. Full records go to
.perfbench_runs/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from workloads import LAYERS, WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
# BLAS/OpenMP threads for every measured process, at most nproc
THREADS = 1
SETUP_PROBES = 12
MIN_PASSES = 2
# an untraced pass repeats a job until it has run this long
MIN_JOB_S = 0.15
# time of worker.reference() on the machine the benchmark was built on,
# in its faster state; timings are reported at that machine speed
REFERENCE_S = 0.013


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimum-size inputs, for tests")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(THREADS, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
    }


def worker(args, cwd, env, timeout):
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout, check=True,
    )


def measure(opts, work: Path, jobs) -> dict:
    env = child_env()
    worker(["probe"], work, env, 60)  # compiles bytecode and warms the file cache

    def probes():
        return [json.loads(worker(["probe"], work, env, 60).stdout) for _ in range(SETUP_PROBES // 2)]

    setup = probes()
    plan = {
        "jobs": [{"id": j.id, "argv": list(j.argv), "csv": j.spec.get("csv")} for j in jobs],
        "seconds": opts.seconds,
        "trace": opts.trace,
        "min_passes": MIN_PASSES,
        "min_job_s": MIN_JOB_S,
        "outputs": str(work / "outputs"),
        "result": str(work / "result.json"),
        "spans": str(RUNS / "results" / f"{opts.workload}-seed{opts.seed}.spans.csv"),
    }
    (work / "plan.json").write_text(json.dumps(plan))
    worker(["run", str(work / "plan.json")], work, env, opts.seconds + 60)
    # half the probes before and half after the worker, so that set-up is
    # sampled at both ends of the measured interval
    setup += probes()
    result = json.loads((work / "result.json").read_text())
    result["setup_samples"] = setup + [[result["import_s"], result["import_reference_s"]]]
    return result


def check(result: dict, work: Path, jobs) -> dict[str, dict[int, list[str]]]:
    """Problems per job and output variant (outputs repeat across passes)."""
    from check import check_job

    problems = {}
    for job in jobs:
        problems[job.id] = {}
        for k, v in enumerate(result["variants"][job.id]):
            stem = Path(v["stem"])
            out = stem.with_suffix(".out").read_text(encoding="utf-8")
            err = stem.with_suffix(".err").read_text(encoding="utf-8")
            csv = stem.with_suffix(".csv").read_text(encoding="utf-8") if v["csv"] else None
            found = check_job(job, work, v["rc"], out, csv)
            if err:
                found.append(f"stderr: {err[:200]!r}")
            problems[job.id][k] = found
    return problems


def latencies(passes, job_ids) -> dict[str, float]:
    """Each job's latency at the reference machine's speed: REFERENCE_S
    times the job's total time over the total reference time timed around
    its runs (the mean of the reference before and after each group of
    runs, once per run). The machine's speed changes by up to 2x for
    seconds to minutes; the job and the reference slow down together, so
    the ratio stays (README.md has the measurements behind this choice)."""
    index = {j: k for k, j in enumerate(job_ids)}
    spent, ref = dict.fromkeys(job_ids, 0.0), dict.fromkeys(job_ids, 0.0)
    for p in passes:
        around = p["reference"]
        for e in p["executions"]:
            k = index[e["job"]]
            spent[e["job"]] += e["seconds"]
            ref[e["job"]] += (around[k] + around[k + 1]) / 2
    return {j: REFERENCE_S * spent[j] / ref[j] for j in job_ids}


def metrics(result: dict, trace: int, job_ids) -> dict[str, float]:
    passes = result["passes"]
    if trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        layers = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        walls = {t: sum(latencies([p for p in passes if p["traced"] == t], job_ids).values()) for t in (True, False)}
        layers["bench.trace_overhead_s"] = walls[True] - walls[False]
        return layers
    latency = latencies(passes, job_ids)
    executions = [e for p in passes for e in p["executions"]]
    return {
        "setup_s": statistics.median(REFERENCE_S * s / r for s, r in result["setup_samples"]),
        "wall_s": sum(latency.values()),
        "job_p50_s": statistics.median(latency.values()),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1.0 - sum(e["failed"] for e in executions) / len(executions),
    }


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not (ROOT / "src" / "qgame" / "cli.py").is_file() or not (ROOT / "games").is_dir():
        print(f"error: {ROOT} is not a qgame checkout (src/qgame and games/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if opts.trace else "end_to_end"]
    work = RUNS / "work" / f"{opts.workload}-seed{opts.seed}-{os.getpid()}"
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    try:
        jobs = build(opts.workload, opts.seed, work, ROOT / "games", smoke=opts.smoke)
        try:
            result = measure(opts, work, jobs)
        except subprocess.CalledProcessError as exc:
            print(f"error: worker failed with exit code {exc.returncode}\n{exc.stderr}", file=sys.stderr)
            return 1
        problems = check(result, work, jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in result["passes"]:
        for e in p["executions"]:
            e["failed"] = bool(problems[e["job"]][e["variant"]])
    attempted = sum(len(p["executions"]) for p in result["passes"])
    failed = sum(e["failed"] for p in result["passes"] for e in p["executions"])
    balance = max((p["balance"] for p in result["passes"] if p["traced"]), default=0.0)
    job_ids = [j.id for j in jobs]
    values = metrics(result, opts.trace, job_ids)
    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "machine": machine(),
        "environment": result["environment"],
        "layers": LAYERS[opts.workload],
        "jobs": [asdict(j) for j in jobs],
        "passes": len(result["passes"]),
        "pass_walls_s": [p["wall"] for p in result["passes"]],
        "reference_s": [r for p in result["passes"] for r in p["reference"]],
        "setup_samples_s": result["setup_samples"],
        "measured_setup_s": statistics.median(s for s, _ in result["setup_samples"]),
        "latencies_s": latencies([p for p in result["passes"] if not p["traced"]], job_ids),
        "measured_latencies_s": {
            j: statistics.mean(e["seconds"] for p in result["passes"] for e in p["executions"] if e["job"] == j)
            for j in job_ids
        },
        "job_latencies_s": {
            j.id: [e["seconds"] for p in result["passes"] for e in p["executions"] if e["job"] == j.id] for j in jobs
        },
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "trace_balance_s": balance,
        "problems": {j: {k: v for k, v in vs.items() if v} for j, vs in problems.items() if any(vs.values())},
        "metrics": values,
    }
    name = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    (RUNS / "results" / name).write_text(json.dumps(record, indent=1))

    for job_id, by_variant in record["problems"].items():
        for found in by_variant.values():
            print(f"# FAILED {job_id}: {'; '.join(found[:3])}")
    print(f"# {opts.workload} seed {opts.seed}: {record['passes']} passes, {attempted} jobs, "
          f"failed_ratio {record['failed_ratio']:g}, machine {json.dumps(record['machine'])}, "
          f"environment {json.dumps(record['environment'])}")
    print(f"# as measured: median reference() {statistics.median(record['reference_s']):.4g} s "
          f"(REFERENCE_S {REFERENCE_S} s), wall {sum(record['measured_latencies_s'].values()):.4g} s, "
          f"median setup {record['measured_setup_s']:.4g} s")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']:<24} {values[m['name']]:.6g} {m['unit']}")
    # self times must add up to each job's traced wall time
    correct = failed == 0 and balance <= 1e-6
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
