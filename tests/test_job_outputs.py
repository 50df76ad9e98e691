"""Every benchmark job prints what it printed when job_outputs.json was written.

The jobs are perfbench/jobs.py's lists for the three workloads at seeds 1
and 7.  Each runs in-process through ``linsys.cli.main`` with
``--format json``, as perfbench/run.py's worker runs it, and its exit code,
stdout and stderr, with the work directory written as ``WORK``, are hashed.
A change that alters a report shows here as the jobs whose digests moved.

Regenerate the file, after checking that every change it records is
intended, from the repository root:

    PYTHONPATH=src python3 tests/test_job_outputs.py
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from linsys.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "job_outputs.json"
SEEDS = (1, 7)
WORKLOADS = ("search", "certify", "lower")


def _jobs_module():
    """perfbench/jobs.py, imported with perfbench/ on the path only while
    it loads (it imports its sibling reference.py)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import jobs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return jobs


def job_digests(workdir: Path) -> dict[str, str]:
    """``seed S: <job name>`` -> sha256 of (exit code, stdout, stderr), for
    every job; random systems are written under ``workdir``."""
    jobs = _jobs_module()
    digests = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            where = workdir / f"{workload}-{seed}"
            where.mkdir()
            for job in jobs.build(workload, seed, where):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(list(job.argv) + ["--format", "json"])
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception as exc:  # a crash is a changed output, named like any other
                        code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
                text = json.dumps([code, out.getvalue(), err.getvalue()]).replace(str(where), "WORK")
                key = f"seed {seed}: {job.name.replace(str(where), 'WORK')}"
                assert key not in digests, f"two jobs named {key!r}"
                digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_every_job_prints_its_recorded_output(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = job_digests(tmp_path)
    changed = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert changed == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = job_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=0) + "\n")
    print(f"wrote {len(table)} job digests to {DIGESTS}")
