"""Benchmark of the medn command line, one workload per process.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Run from any directory; the checkout is the parent of this file's
directory, and ``medn`` is imported from its ``src/``.  The benchmark
writes its inputs from ``--seed``, times each set-up, then runs passes of
the workload's CLI commands through ``medn.cli.main`` in a closed loop (one
client; each command starts when the previous one has returned) until
``--seconds`` are used, and checks every pass's outputs.  With ``--trace
1`` it first runs untraced passes for half the time, then wraps the
package's layer functions and runs traced passes for the rest.

The process runs on one CPU.  Every command's CPU time is scaled to the
nominal core speed by the reference computation of ``calibrate.py``,
timed on that CPU just before and just after the command; the end-to-end
times are medians of these scaled times.  Raw wall and CPU times are
printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json untraced, its per-layer metrics traced.  The lines above it
give every metric by name and unit, and the run's environment.  Results,
and the spans of a traced run, go to ``.bench_work/results/``.
"""

import os

# One BLAS/OpenMP thread: the load stays one process on one core.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import NOMINAL_S, reference_seconds  # noqa: E402
from spans import Tracer, percentile, summarize, tail_percentile  # noqa: E402
from workloads import WORKLOADS, rates  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.process_time()\n"
    "import medn.cli\n"
    "print(time.process_time() - t)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def git_hash() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that a command and
    the reference timings beside it run on the same core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_seconds() -> float:
    """CPU time to import medn.cli in a fresh interpreter, as every CLI user pays it."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import medn from {SRC}: {proc.stderr.strip().splitlines()[-1:]}")
    return float(proc.stdout.strip())


class NominalClock:
    """Scales CPU times to the nominal core speed.

    Each call to ``scale`` times the reference computation once more and
    scales the CPU time just spent by the mean of that reference time and
    the one before it.
    """

    def __init__(self):
        self.refs = [reference_seconds()]

    def scale(self, cpu_s: float) -> float:
        self.refs.append(reference_seconds())
        return cpu_s * NOMINAL_S * 2.0 / (self.refs[-2] + self.refs[-1])


def import_medn():
    """Import medn in this process and fail unless it came from the checkout's src/."""
    sys.path.insert(0, str(SRC))
    import medn
    import medn.cli

    origin = Path(medn.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"medn imported from {origin}, not from {SRC}")


def run_command(argv, tracer):
    """Run one CLI command; returns None on success, else a failure message."""
    import medn.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = medn.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    rc = medn.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crashing command is a counted failure, not the end of the run
        rc = "exception"
        err.write(traceback.format_exc())
    if rc == 0:
        return None
    return f"{argv[0]} exited with {rc}: {err.getvalue().strip()[-2000:]}"


class Tally:
    """Attempted and failed commands and checks, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{name}: {failure}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(wl, budget_s, tally, tracer=None):
    """Passes until the next one would overrun ``budget_s`` (always one).

    Returns per pass its wall time, CPU time and CPU time at the nominal
    core speed (each the sum over the pass's commands), the reference
    times, and the process's peak resident memory after the first pass.
    The reference timings and the output checks are outside a pass's times.
    """
    times = {"wall": [], "cpu": [], "nominal": []}
    clock = NominalClock()
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = len(times["wall"])
        pass_started = time.perf_counter()
        results, wall, cpu, nominal = [], 0.0, 0.0, 0.0
        for argv in wl.commands():
            t0, c0 = time.perf_counter(), time.process_time()
            results.append((argv[0], run_command(argv, tracer)))
            wall += time.perf_counter() - t0
            spent = time.process_time() - c0
            cpu += spent
            nominal += clock.scale(spent)
        for key, value in (("wall", wall), ("cpu", cpu), ("nominal", nominal)):
            times[key].append(value)
        if len(times["wall"]) == 1:
            # Later passes can only add allocator fragmentation from reusing
            # one process, which a user running one command per process
            # never sees.
            first_rss = peak_rss_mb()
        for name, failure in results:
            tally.add(f"command {name}", failure)
        if not any(failure for _, failure in results):
            for name, failure in wl.check():
                tally.add(f"check {name}", failure)
        now = time.perf_counter()
        if now - started + (now - pass_started) > budget_s:
            return times, clock.refs, first_rss


def environment(seed, loadavg, cpu):
    import scipy

    import medn

    return {
        "git": git_hash(),
        "medn_file": medn.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "threads_pinned": {var: os.environ[var] for var in PINNED_THREADS},
        "pinned_cpu": cpu,
        "loadavg_start": loadavg,
        "seed": seed,
    }


def run(spec, workload, seed, seconds, trace):
    if not (SRC / "medn" / "__init__.py").is_file():
        raise BenchError(f"no medn package under {SRC}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    loadavg = os.getloadavg()
    cpu = pin_to_one_cpu()
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[workload](workdir, seed)

    setup, setup_cpu = [], []
    for _ in range(SETUP_REPEATS):
        clock = NominalClock()
        imported = import_seconds()
        c0 = time.process_time()
        wl.prepare()
        spent = imported + time.process_time() - c0
        setup_cpu.append(spent)
        setup.append(clock.scale(spent))
    import_medn()
    env = environment(seed, loadavg, cpu)
    wl.reference()

    tally = Tally()
    work = wl.work()
    result = {"workload": workload, "seconds": seconds, "trace": trace, "env": env,
              "work_per_pass": work, "setup_s_samples": setup, "setup_cpu_s_samples": setup_cpu}
    if not trace:
        times, refs, rss = run_passes(wl, seconds, tally)
        nominal = statistics.median(times["nominal"])
        values = {
            "pass_s": (nominal, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "work_per_s": (next(iter(work.values())) / nominal, "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        shown = dict(values)
        wall = statistics.median(times["wall"])
        shown["wall_s"] = (wall, "s")
        shown["cpu_s"] = (statistics.median(times["cpu"]), "s")
        shown["reference_s"] = (statistics.median(refs), "s")
        shown.update({k: (v, "1/s") for k, v in rates(work, wall).items()})
        tail = tail_percentile(len(times["wall"]))
        result.update(pass_times=times, reference_times=refs, tail_percentile=tail)
        notes = {name: f"median of {len(times[key])} passes; " + (
            f"p{tail:g} {percentile(sorted(times[key]), tail):.4f} s" if tail
            else "no percentile has 10 passes beyond it")
            for name, key in (("pass_s", "nominal"), ("wall_s", "wall"), ("cpu_s", "cpu"))}
        notes["pass_s"] = "CPU time at the nominal core speed, " + notes["pass_s"]
        notes["setup_s"] = f"median of {SETUP_REPEATS}, CPU time at the nominal core speed"
        notes["reference_s"] = f"median reference time, nominal {NOMINAL_S} s"
    else:
        untraced, _, _ = run_passes(wl, seconds / 2.0, tally)
        tracer = Tracer()
        tracer.install()
        traced, _, _ = run_passes(wl, seconds / 2.0, tally, tracer)
        walls = traced["wall"]
        scales = [n / w for n, w in zip(traced["nominal"], walls)]
        values, counts, details = summarize(list(tracer.rows()), walls, scales)
        values["trace.overhead_s"] = (
            statistics.median(traced["nominal"]) - statistics.median(untraced["nominal"]), "s")
        for p in range(1, len(counts)):
            diff = sorted(k for k in set(counts[0]) | set(counts[p]) if counts[0].get(k) != counts[p].get(k))
            tally.add("check trace-counts", f"pass {p} counts differ from pass 0: {diff}" if diff else None)
        spans_path = WORK / "results" / f"{workload}-seed{seed}-spans.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        shown = values
        result.update(untraced_pass_times=untraced, traced_pass_times=traced,
                      counts_by_pass=counts, spans_file=str(spans_path.relative_to(ROOT)), **details)
        notes = {"trace.overhead_s": f"traced median of {len(walls)} passes minus untraced median of "
                                     f"{len(untraced['wall'])}, CPU time at the nominal core speed"}

    missing = sorted(set(want) - set(values))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    failed = len(tally.failures)
    shown["fail_rate"] = (failed / tally.attempted, "ratio")
    notes["fail_rate"] = f"{failed} of {tally.attempted} commands and checks failed"
    result.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                  attempted=tally.attempted, failures=tally.failures)
    results_path = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for message in tally.failures:
        print(f"FAILED {message}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {notes.get(name, '')}")
    print(f"results in {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k][0], "unit": want[k]} for k in want},
    }))


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        run(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
