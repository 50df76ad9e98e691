"""Benchmark of real linsys CLI jobs, run back to back from one process.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Each pass runs one workload's whole job list (see jobs.py) in a fresh
interpreter, one job after another through ``linsys.cli.main`` with
``--format json`` and one worker (LINSYS_THREADS unset).  After the pass
the interpreter checks every report against computations made apart from
linsys (checks.py).  Passes repeat while another one fits in ``--seconds``;
there is always at least one.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics: medians over the passes of ``wall_s`` (one pass),
``cpu_s`` (its CPU time, child processes included) and ``peak_rss_mib``,
and ``setup_s``, the median time from starting a fresh interpreter to its
first job over several interpreters.  With ``--trace 1`` passes run in
untraced and traced pairs; the last line holds the per-layer metrics of the
traced passes (tracing.py), and the line before it the tracing overhead.

The script only reads and writes inside the checkout: results and spans go
to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7        # fresh interpreters timed to their first job, per run
WORKER_TIMEOUT = 170     # seconds; a run must end within 180


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# ---------------------------------------------------------------------------
# worker: one pass, or only its set-up, in this interpreter

def worker(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(SRC))
    from linsys.cli import main as linsys_main
    import jobs

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        job_list = jobs.build(args.workload, args.seed, workdir)
        tracer = None
        if args.traced:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        first_job = time.monotonic()
        if args.setup_only:
            print(json.dumps({"first_job": first_job}))
            return
        outcomes = []
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        for i, job in enumerate(job_list):
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.begin_job(i)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = linsys_main(list(job.argv) + ["--format", "json"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    code = -1
                    traceback.print_exc()
            if tracer:
                tracer.end_job()
            outcomes.append((code, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"first_job": first_job, "wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak_rss_mib}
    if tracer:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json.gz",
                     [job.name for job in job_list])

    import checks
    verdicts = checks.check_pass(job_list, outcomes)
    result["attempted"] = len(job_list)
    result["failed"] = [job.name for job, v in zip(job_list, verdicts) if v.failed]
    result["wrong"] = {job.name: v.problems for job, v in zip(job_list, verdicts) if v.problems}
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# parent: set-up samples, passes, summary

def _spawn(args: argparse.Namespace, *extra: str) -> tuple[dict, float]:
    """Run a worker; returns its result and its start time."""
    env = dict(os.environ)
    env.pop("LINSYS_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _pass(args: argparse.Namespace, traced: bool = False) -> dict:
    result, started = _spawn(args, *(["--traced"] if traced else []))
    result["setup_s"] = result.pop("first_job") - started
    return result


def run(args: argparse.Namespace) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES):
        result, started = _spawn(args, "--setup-only")
        setups.append(result["first_job"] - started)

    plain: list[dict] = []
    traced: list[dict] = []
    begin = time.monotonic()
    while True:
        round_start = time.monotonic()
        plain.append(_pass(args))
        if args.trace:
            traced.append(_pass(args, traced=True))
        spent = time.monotonic() - begin
        if spent + (time.monotonic() - round_start) > args.seconds:
            break

    done = plain + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(len(r["failed"]) for r in done)
    wrong: dict[str, list[str]] = {}
    for r in done:
        wrong.update(r["wrong"])

    def median(key: str, of: list[dict]) -> float:
        return statistics.median(r[key] for r in of)

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_samples_s": setups + [r["setup_s"] for r in plain],
        "passes": [{k: v for k, v in r.items() if k != "wrong"} for r in done],
        "wrong": wrong,
        "correct": not wrong, "attempted": attempted, "failed": failed,
    }
    if args.trace:
        from tracing import PER_LAYER_UNITS, median_metrics
        metrics = median_metrics([r["per_layer"] for r in traced])
        summary["metrics"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}
        summary["overhead_s"] = median("wall_s", traced) - median("wall_s", plain)
        summary["overhead_base_s"] = median("wall_s", plain)
    else:
        summary["metrics"] = {
            "wall_s": {"value": median("wall_s", plain), "unit": "s"},
            "cpu_s": {"value": median("cpu_s", plain), "unit": "s"},
            "setup_s": {"value": statistics.median(summary["setup_samples_s"]), "unit": "s"},
            "peak_rss_mib": {"value": median("peak_rss_mib", plain), "unit": "MiB"},
        }
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("search", "certify", "lower"), required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of the random systems (default 1)")
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the measured part of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        worker(args)
        return 0
    if not (SRC / "linsys" / "cli.py").is_file():
        print(f"error: no linsys sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        summary = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{name}.json").write_text(json.dumps(summary, indent=1) + "\n")

    for r in summary["passes"]:
        print(f"pass: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, rss {r['peak_rss_mib']:.1f} MiB, "
              f"{r['attempted']} jobs, {len(r['failed'])} failed" + (" (traced)" if "per_layer" in r else ""))
    for job in sorted({j for r in summary["passes"] for j in r["failed"]}):
        print(f"failed: {job}" + (f": {'; '.join(summary['wrong'][job])}" if job in summary["wrong"] else
                                  " (known fault)"))
    if args.trace:
        base = summary["overhead_base_s"]
        print(f"tracing overhead: {summary['overhead_s']:.3f} s per pass "
              f"({100 * summary['overhead_s'] / base:.1f}% of {base:.3f} s untraced)")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
