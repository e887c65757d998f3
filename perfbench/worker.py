"""Benchmark worker, started as a fresh process for every measurement.

    python3 perfbench/worker.py probe
        Import qgame.cli and print the seconds the import took and the
        seconds of the second reference() after it.
    python3 perfbench/worker.py run PLAN.json
        Import qgame.cli (timed), then run the plan's job list through
        qgame.cli.main in passes, one job at a time, until the plan's
        seconds are used. In an untraced pass a job shorter than the
        plan's min_job_s runs again until it has used that long. Before
        each job and at the end of each pass it times reference(), which
        gauges the machine's speed. Writes PLAN.json's "result" file.

The caller fixes the BLAS thread count in the environment and sets the
current directory to the work directory that holds the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def timed_import():
    start = time.perf_counter()
    import qgame.cli

    elapsed = time.perf_counter() - start
    if not Path(qgame.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qgame was imported from {qgame.cli.__file__}, not from {ROOT / 'src'}")
    return elapsed


def run_job(argv):
    """Run one CLI call; returns (exit code or error text, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sys.modules["qgame.cli"].main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = "exception: " + traceback.format_exc(limit=4)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def reference() -> float:
    """Time a fixed piece of work that does not use qgame: a Python loop,
    small complex Kronecker products and one array pass, about the mix of
    the jobs. Timed next to a job, it gauges how fast the machine ran."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    u = np.array([[1, 1j], [1j, 1]]) / 2**0.5
    v = np.ones(16, dtype=complex)
    for _ in range(150):
        v = np.kron(np.kron(u, u), np.kron(u, u)) @ v
    x = np.exp(1j * np.linspace(0.0, 1.0, 100_000))
    (x.real**2 + x.imag**2).sum()
    return time.perf_counter() - start


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(plan_path: Path) -> None:
    from spans import Tracer, job_balance, layer_metrics

    import_s = timed_import()
    reference()
    import_reference_s = reference()
    plan = json.loads(plan_path.read_text())
    jobs = plan["jobs"]
    tracer = Tracer()
    variants: dict[str, list[dict]] = {job["id"]: [] for job in jobs}
    keys: dict[str, dict[str, int]] = {job["id"]: {} for job in jobs}
    out_dir = Path(plan["outputs"])
    out_dir.mkdir(parents=True, exist_ok=True)
    passes, last_spans = [], []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = plan["trace"] and len(passes) % 2 == 1
        if traced:
            tracer.install()
        executions, references = [], []
        for job in jobs:
            references.append(reference())
            tracer.job = job["id"]
            # untraced passes repeat a short job back to back until it has
            # run for min_job_s, so that its latency is averaged over many
            # samples; traced passes run each job once, so per-pass layer
            # counts do not depend on the machine's speed
            spent = 0.0
            while True:
                rc, out, err, seconds = run_job(job["argv"])
                csv = None
                if job["csv"]:
                    path = Path(job["csv"])
                    if path.exists():
                        csv = path.read_text(encoding="utf-8")
                        path.unlink()
                key = hashlib.sha256(json.dumps([rc, out, err, csv]).encode()).hexdigest()
                seen = keys[job["id"]]
                if key not in seen:
                    seen[key] = len(seen)
                    stem = out_dir / f"{job['id']}-{seen[key]}"
                    Path(f"{stem}.out").write_text(out, encoding="utf-8")
                    Path(f"{stem}.err").write_text(err, encoding="utf-8")
                    if csv is not None:
                        Path(f"{stem}.csv").write_text(csv, encoding="utf-8")
                    variants[job["id"]].append({"rc": rc, "stem": str(stem), "csv": csv is not None})
                executions.append({"job": job["id"], "seconds": seconds, "variant": seen[key],
                                   "output_bytes": len(out.encode()) + len((csv or "").encode())})
                spent += seconds
                if traced or spent >= plan["min_job_s"]:
                    break
        # references[k] and references[k + 1] enclose the runs of job k
        references.append(reference())
        record = {"traced": traced, "wall": sum(e["seconds"] for e in executions), "executions": executions,
                  "reference": references}
        if traced:
            tracer.uninstall()
            spans, counters = tracer.take()
            record["layers"] = layer_metrics(spans, counters)
            record["layers"]["cli.output_bytes"] = sum(e["output_bytes"] for e in executions)
            record["balance"] = job_balance(spans)
            last_spans = spans
        passes.append(record)
        now = time.perf_counter()
        if len(passes) >= plan["min_passes"] and now - begin + (now - pass_start) > plan["seconds"]:
            break

    if last_spans:
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,start,end\n")
            for s in last_spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{parent},{s.job},{s.name},{s.start!r},{s.end!r}\n")
    result = {
        "import_s": import_s,
        "import_reference_s": import_reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "passes": passes,
        "variants": variants,
    }
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")


def main(argv) -> int:
    if argv[:1] == ["probe"]:
        import_s = timed_import()
        reference()  # first calls into numpy are slower
        print(json.dumps([import_s, reference()]))
        return 0
    if len(argv) == 2 and argv[0] == "run":
        run(Path(argv[1]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
