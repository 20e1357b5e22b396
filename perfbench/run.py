"""chbound benchmark: end-to-end CLI timings and per-layer traced self times.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact|mc|detect --seed N --seconds S --trace 0|1

Each workload is a fixed list of ``chbound`` CLI jobs (``perfbench/jobs.py``)
run one after another from this single driver process: a closed loop with
one client.  The console script is not installed, so each job runs as
``python -m chbound.cli ...`` with the repository's ``src`` on the path, and
interpreter start-up and imports are part of every job's time.

``--trace 0`` measures with tracing off.  It runs passes over the job list
until the next job, at its average time so far, would end after
``--seconds``; the last pass may stop part way, so the early jobs of the
list can have one sample more than the later ones.  The shared host's
speed drifts by a quarter and more from minute to minute, so every timed
process is bracketed by runs of ``perfbench/calibrate.py``, a fixed job
that uses none of the program's code, and its wall time is scaled by
``CALIBRATION_REF_S`` / (mean of the two calibration times around it): the
time it would take on a host where the calibration takes
``CALIBRATION_REF_S``.  ``scaled_wall_s`` sums each job's median scaled
wall time over the passes.  ``setup_s`` is the median scaled wall time of
``chbound bound`` (pure import, argparse and scalar math), timed three times
up front and once after every pass, so that its samples span the run.
``peak_rss_mb`` is the highest max-RSS of any job's process.  The raw wall
times, unscaled, are kept in the record and on the ``perfbench groups``
line.

``--trace 1`` first runs every job once as a subprocess, then repeats
pairs of in-process passes through ``chbound.cli.main``: one untraced and
one with ``perfbench/spans.py`` wrapping the public calls of each layer.
Each in-process report must equal the subprocess report byte for byte, and
the work counts must repeat exactly from pass to pass.

Every job's output is checked against an independent reference; a job that
crashes, exits 1, 2 or 4, or fails its check counts in ``failed``.  The last
line of standard output is the JSON result; the line before it records the
machine.  A fuller record goes to ``.perfbench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import jobs as jobs_mod
import layers
import selftest
from spans import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CALIBRATION = Path(__file__).resolve().parent / "calibrate.py"
# About the calibration's median time on the 2-core Intel Xeon VM the
# benchmark was defined on; scaled times read as seconds on that host.
CALIBRATION_REF_S = 0.4
JOB_TIMEOUT_S = 150.0

# Jobs run with the thread count their flags ask for: one thread, or
# ``--workers`` pool threads.  Left at its default, the BLAS library adds a
# thread per core to every dot product of 10^4+ atoms, and the verify jobs
# then slow by 1.5-12x whenever the other core is busy.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "scaled_wall_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    job: str
    wall_s: float
    exit_code: int
    rss_mb: float = 0.0
    scale: float = 1.0  # CALIBRATION_REF_S / calibration time around this run
    failure: str | None = None
    tts_s: float | None = None
    report_bytes: bytes = field(default=b"", repr=False)


def _child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _spawn(argv: list[str], env: dict, stderr) -> tuple[float, int, os.struct_rusage]:
    """Run ``argv`` to its end; return its wall time, exit code and usage.

    ``os.wait4`` blocks until the child ends, so the wall time has no
    polling granularity; a watchdog kills a child that outlives the limit.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, code, usage


def run_subprocess(job: jobs_mod.Job, out: Path, env: dict) -> Outcome:
    """Run one job as ``python -m chbound.cli``; time it and check its report."""
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "chbound.cli", *job.argv, "--out", str(out)]
    with open(out.with_suffix(".err"), "wb") as err:
        wall, code, usage = _spawn(argv, env, err)
    outcome = Outcome(job.name, wall, code, rss_mb=usage.ru_maxrss / 1024.0)
    _check(job, out, outcome)
    stderr = out.with_suffix(".err").read_text(errors="replace").strip()
    if outcome.failure and stderr:
        outcome.failure += f" (stderr: {stderr.splitlines()[-1]})"
    return outcome


def _check(job: jobs_mod.Job, out: Path, outcome: Outcome) -> None:
    report = None
    if out.exists():
        outcome.report_bytes = out.read_bytes()
        try:
            report = json.loads(outcome.report_bytes)
        except json.JSONDecodeError:
            outcome.failure = "report is not JSON"
            return
    try:
        outcome.failure = job.check(report, outcome.exit_code)
        if outcome.failure is None and job.reference is not None:
            ref = job.reference(report)
            rel = report["result"]["std_error"] / (0.01 * ref)
            outcome.tts_s = outcome.wall_s * rel * rel
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        outcome.failure = f"unexpected report: {exc!r}"


# -- trace 0 -------------------------------------------------------------


def _fits(start: float, pass_times: list[float], seconds: float) -> bool:
    """Whether one more pass of average length ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.fmean(pass_times) <= seconds


def calibrate(env: dict) -> float:
    """Wall time of one run of the calibration job."""
    wall, code, _ = _spawn([sys.executable, str(CALIBRATION)], env, None)
    if code != 0:
        raise RuntimeError(f"{CALIBRATION.name} exited with code {code}")
    return wall


def timed_run(job_list, seconds: float, work: Path) -> dict:
    env = _child_env()
    setup_job = jobs_mod.setup_job()

    def bracketed(job: jobs_mod.Job, before: float) -> tuple[Outcome, float]:
        """Run ``job``, then the calibration; scale by the two around it."""
        outcome = run_subprocess(job, work / f"{job.name}.json", env)
        after = calibrate(env)
        outcome.scale = CALIBRATION_REF_S / (0.5 * (before + after))
        return outcome, after

    start = time.perf_counter()
    outcomes = [run_subprocess(setup_job, work / "setup.json", env)]  # warms caches; not timed
    calibrations = [calibrate(env)]
    setup: list[Outcome] = []
    for _ in range(SETUP_REPEATS):
        sample, cal = bracketed(setup_job, calibrations[-1])
        setup.append(sample)
        calibrations.append(cal)
    runs: dict[str, list[Outcome]] = {job.name: [] for job in job_list}
    durations: dict[str, list[float]] = {job.name: [] for job in job_list}  # with calibration

    def fits(job) -> bool:
        """Whether one more run of ``job``, of its average length, ends in time."""
        elapsed = time.perf_counter() - start
        return elapsed + statistics.fmean(durations[job.name]) <= seconds

    passes, running = 0, True
    while running:
        for job in job_list:
            if passes and not fits(job):
                running = False
                break
            job_start = time.perf_counter()
            outcome, cal = bracketed(job, calibrations[-1])
            runs[job.name].append(outcome)
            calibrations.append(cal)
            durations[job.name].append(time.perf_counter() - job_start)
        else:
            passes += 1
            sample, cal = bracketed(setup_job, calibrations[-1])  # set-up samples span the run
            setup.append(sample)
            calibrations.append(cal)
    outcomes += setup + [o for job in job_list for o in runs[job.name]]

    def median_wall(job, scaled: bool) -> float:
        return statistics.median(o.wall_s * (o.scale if scaled else 1.0)
                                 for o in runs[job.name])

    groups: dict[str, float] = {}
    for job in job_list:
        groups[job.group] = groups.get(job.group, 0.0) + median_wall(job, scaled=False)
        tts = [o.tts_s for o in runs[job.name] if o.tts_s is not None]
        if job.reference is not None and tts:
            groups[job.group.removesuffix("_s") + "_tts_s"] = statistics.median(tts)
    groups["raw_wall_s"] = sum(median_wall(job, scaled=False) for job in job_list)
    groups["raw_setup_s"] = statistics.median(o.wall_s for o in setup)
    groups["calibration_s"] = statistics.median(calibrations)
    metrics = {
        "setup_s": statistics.median(o.wall_s * o.scale for o in setup),
        "scaled_wall_s": sum(median_wall(job, scaled=True) for job in job_list),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "groups_s": groups,
        "passes": passes,
        "calibrations_s": calibrations,
        "outcomes": outcomes,
    }


# -- trace 1 -------------------------------------------------------------


def _in_process(job: jobs_mod.Job, out: Path, reference: Outcome) -> Outcome:
    import chbound.cli

    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = chbound.cli.main([*job.argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    outcome = Outcome(job.name, wall, code)
    _check(job, out, outcome)
    if outcome.failure is None and (
        outcome.report_bytes != reference.report_bytes or code != reference.exit_code
    ):
        outcome.failure = "in-process report differs from the subprocess report"
    return outcome


def traced_run(job_list, seconds: float, work: Path) -> dict:
    failures = [f"tracer self-test: {e}" for e in selftest.run()]
    env = _child_env()
    start = time.perf_counter()
    reference = {job.name: run_subprocess(job, work / f"{job.name}.json", env)
                 for job in job_list}
    outcomes = list(reference.values())

    sys.path.insert(0, str(SRC))
    import chbound.cli  # noqa: F401  (imported before timing)

    overheads, per_pass, pass_times = [], [], []
    while not per_pass or _fits(start, pass_times, seconds):
        pass_start = time.perf_counter()
        tracer = Tracer()

        def untraced_pass():
            return [_in_process(job, work / f"{job.name}.in.json", reference[job.name])
                    for job in job_list]

        def traced_pass():
            tracer.install(layers.targets(), layers.PACKAGE)
            try:
                out = []
                for job in job_list:
                    tracer.job = job.name
                    out.append(_in_process(job, work / f"{job.name}.tr.json",
                                           reference[job.name]))
                return out
            finally:
                tracer.uninstall()

        # alternate which side runs first, so warm-up does not bias the overhead
        if len(per_pass) % 2:
            traced, plain = traced_pass(), untraced_pass()
        else:
            plain, traced = untraced_pass(), traced_pass()
        outcomes += plain + traced
        spans = tracer.reset()
        per_pass.append(layers.layer_metrics(spans, aggregate(spans)))
        untraced = sum(o.wall_s for o in plain)
        overheads.append((sum(o.wall_s for o in traced) - untraced) / untraced)
        pass_times.append(time.perf_counter() - pass_start)

    unsteady = [name for name in layers.COUNT_METRICS if len({p[name] for p in per_pass}) != 1]
    if unsteady:
        failures.append(f"counts differ between passes: {unsteady}")
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_frac"] = statistics.median(overheads)
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in layers.PER_LAYER.items()},
        "passes": len(per_pass),
        "missing_targets": tracer.missing,
        "outcomes": outcomes,
        "extra_checks": 2,  # the tracer self-test and the repeated counts
        "extra_failures": failures,
    }


# -- environment and output ---------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{leaf}") for leaf in ("level", "type", "size"))
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_THREADS)  # before numpy loads, here or in a job
    if not (SRC / "chbound" / "cli.py").is_file():
        print(f"perfbench: no chbound sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        job_list = jobs_mod.build(args.workload, args.seed, work)
        run = (traced_run if args.trace else timed_run)(job_list, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = run.pop("outcomes")
    failed = [f"{o.job}: {o.failure}" for o in outcomes if o.failure]
    failed += run.pop("extra_failures", [])
    attempted = len(outcomes) + run.pop("extra_checks", 0)
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, **run,
        "failed": failed,
        "jobs": [{"job": o.job, "wall_s": o.wall_s, "scale": o.scale, "exit": o.exit_code,
                  "rss_mb": o.rss_mb, "tts_s": o.tts_s, "failure": o.failure}
                 for o in outcomes],
    }
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for line in failed:
        print(f"perfbench FAILED {line}")
    if "groups_s" in run:
        print("perfbench groups " + json.dumps(run["groups_s"]))
    print("perfbench env " + json.dumps(env))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
