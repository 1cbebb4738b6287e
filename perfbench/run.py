#!/usr/bin/env python3
"""radiuskit benchmark: seeded CLI workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload ak-sweep --seed 1 --seconds 20 --trace 0

Run from a checkout holding ``src/radiuskit``.  One process runs one
``radiuskit.cli.main(argv)`` job at a time (a closed loop with one client).
Set-up imports radiuskit, writes the seeded input files into a temporary
directory under ``.bench_work/`` and runs a small warm-up; it is repeated
and its median reported as ``setup_s``.  Then every job runs once, in
order, and jobs run again round-robin, each up to an equal share of
``--seconds``.  Times are scaled to a nominal host speed (``hostspeed.py``)
and each job's latency is the mean of the middle half of its runs.  Every job's output is checked after the
timed region by ``checks.py``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half the time untraced and half in traced passes and
prints the per-layer metrics; spans go to ``.bench_out/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` swaps in a reduced job list.
"""

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import workloads
from hostspeed import HostSpeed
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_RUNS = 3


def import_program():
    """Import radiuskit afresh from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "radiuskit" or n.startswith("radiuskit.")]:
        del sys.modules[name]
    cli = importlib.import_module("radiuskit.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"radiuskit imported from {cli.__file__}")
    return cli


def run_once(cli, job, speed):
    """Run one job in-process.  Returns (nominal seconds, exit status,
    stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    probed = speed.busy
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed job, not a crash
        rc = f"raised {type(exc).__name__}: {exc}"
    end = perf_counter()
    work = end - start - (speed.busy - probed)
    if job.witness_out and rc == 0:
        # The verify job after a reduce reads the witness it emitted.
        try:
            witness = json.loads(out.getvalue())["witness"]
        except (ValueError, KeyError):
            witness = ""
        with open(job.witness_out, "w", encoding="utf-8") as fh:
            fh.write(witness.rstrip("\n") + "\n")
    return speed.nominal(work, start, end), rc, out.getvalue(), work


def wants_run(job, results, share, seconds):
    """Whether a job with these run_once results runs again: while its runs
    total less than its share of the time.  largest_job_s rests on one job
    alone, so the largest instance, if it has run fewer than MIN_RUNS
    times, also runs again while its runs total less than
    seconds / (2 * MIN_RUNS)."""
    took = sum(r[3] for r in results)
    return results[0][1] == 0 and (
        took < share or
        (job.largest and len(results) < MIN_RUNS
         and took < seconds / (2 * MIN_RUNS)))


def run_shared(cli, jobs, speed, seconds):
    """Run every job once, in order.  Then, until `seconds` have passed,
    run again, round-robin, each job that wants_run with an equal share of
    the time, seconds / len(jobs): short jobs repeat many times, and a
    job's repeats are spread over the run.  Returns each job's list of
    run_once results."""
    start = perf_counter()
    runs = [[run_once(cli, job, speed)] for job in jobs]
    share = seconds / len(jobs)
    while True:
        pending = [i for i, results in enumerate(runs)
                   if wants_run(jobs[i], results, share, seconds)]
        if not pending:
            return runs
        for index in pending:
            if perf_counter() - start >= seconds:
                return runs
            runs[index].append(run_once(cli, jobs[index], speed))


def run_pass(cli, jobs, speed, tracer, label):
    """Run every job once, in order, traced.  Returns (wall seconds,
    run_once results)."""
    results = []
    start = perf_counter()
    for index, job in enumerate(jobs):
        tracer.job = f"{label}:{index}"
        results.append(run_once(cli, job, speed))
    return perf_counter() - start, results


def setup(workload, seed, smoke, workdirs, speed):
    """Import, generate inputs, warm up.  The input directory is appended to
    workdirs, for removal.  Returns (nominal seconds, cli, jobs)."""
    probed = speed.busy
    start = perf_counter()
    cli = import_program()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    workdirs.append(workdir)
    jobs = workloads.build(workload, seed, workdir, smoke)
    # A failing warm-up job is not reported here: its timed twin fails too.
    for job in workloads.build(workload, seed, workdir / "warmup", smoke=True):
        if job.argv[:2] != ["exact", "fk"]:
            run_once(cli, job, speed)
    end = perf_counter()
    took = speed.nominal(end - start - (speed.busy - probed), start, end)
    return took, cli, jobs


def check_outputs(jobs, runs, golden):
    """Fully check each job's first output; its other runs must repeat it
    byte for byte.  Returns (attempted, failures)."""
    failures = []
    attempted = 0
    for job, results in zip(jobs, runs):
        _, rc, stdout, _ = results[0]
        problem = checks.check(job, rc, stdout, golden)
        attempted += len(results)
        if problem is not None:
            failures += [(job, problem)] * len(results)
            continue
        for n, (_, again, output, _) in enumerate(results[1:], 2):
            if again != 0 or output != stdout:
                failures.append((job, f"run {n}: exit {again} or output "
                                      f"differs from run 1"))
    return attempted, failures


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def middle_mean(values):
    """The mean of the middle half of the values.  Unlike the median it is
    steady when a job's times have two modes, as when some of its runs
    include a full garbage collection and others do not."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def job_latencies(runs, field=0):
    """Each job's latency over its runs, as middle_mean; field 0 is nominal
    time, field 3 wall time."""
    return [middle_mean(r[field] for r in results) for results in runs]


def end_to_end(jobs, runs, setups):
    """Latencies are nominal times (hostspeed.py), each job's the
    middle_mean over its runs."""
    lat = job_latencies(runs)
    wall = job_latencies(runs, field=3)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(jobs) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "largest_job_s": statistics.median(
            x for x, job in zip(lat, jobs) if job.largest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = [f"{len(jobs)} jobs, {sum(len(r) for r in runs)} runs; wall "
             f"time, not scaled to nominal host speed: jobs_per_s "
             f"{len(jobs) / sum(wall):.6g} 1/s, job_p50_s "
             f"{statistics.median(wall):.6g} s, largest_job_s "
             f"{max(x for x, job in zip(wall, jobs) if job.largest):.6g} s"]
    if len(lat) >= 100:
        notes.append(f"job_p90_s {percentile(lat, 0.9):.6g} s ({len(lat)} "
                     f"jobs' latencies)")
    records = [json.loads(results[0][2]) for job, results in zip(jobs, runs)
               if job.check == "construct-bipartite" and results[0][1] == 0]
    ratios = [r["length"] / Fraction(r["lower_bound"]) for r in records]
    if ratios:
        notes.append(f"length_ratio {float(statistics.fmean(ratios)):.6f} "
                     f"(mean over {len(ratios)} constructions)")
    return metrics, notes


def per_layer(tracer, untraced, traced):
    """untraced: each job's runs; traced: (wall, results) per pass."""
    n = len(traced)
    metrics = {}
    selfs = tracer.self_times()
    for name, value in selfs.items():
        metrics[name + ".self_s"] = value / n
    layer_self = {layer: sum(v for name, v in selfs.items()
                             if name.split(".")[0] == layer) / n
                  for layer in LAYERS}
    for layer, value in layer_self.items():
        metrics[layer + ".self_s"] = value
    for name, value in tracer.counts.items():
        metrics[name] = value / n
    traced_wall = statistics.median(wall for wall, _ in traced)
    # Sums of per-job nominal times, as in end_to_end.
    traced_runs = list(zip(*(results for _, results in traced)))
    metrics["trace.overhead_s"] = (sum(job_latencies(traced_runs)) -
                                   sum(job_latencies(untraced)))
    metrics["trace.unaccounted_s"] = (sum(w for w, _ in traced) -
                                      tracer.root_time()) / n
    top = max(layer_self, key=layer_self.get)
    notes = [f"traced passes {n}, traced pass wall {traced_wall:.4f} s",
             f"largest self_s layer: {top} ({layer_self[top]:.4f} s of "
             f"{traced_wall:.4f} s per pass)"]
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced job list, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "radiuskit" / "cli.py").is_file():
        print(f"error: no radiuskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    workdirs = []
    try:
        setups = []
        traced = []
        tracer = Tracer()
        with HostSpeed() as speed:
            for _ in range(SETUP_REPEATS):
                took, cli, jobs = setup(args.workload, args.seed, args.smoke,
                                        workdirs, speed)
                setups.append(took)
            if not args.trace:
                untraced = run_shared(cli, jobs, speed, args.seconds)
            else:
                # Half the time untraced, half in traced passes; another
                # pass starts only if it should end within half a pass.
                half = args.seconds / 2
                untraced = run_shared(cli, jobs, speed, half)
                start = perf_counter()
                with tracer.patched():
                    while True:
                        traced.append(run_pass(cli, jobs, speed, tracer,
                                               f"pass{len(traced)}"))
                        took = perf_counter() - start
                        if took + 0.5 * took / len(traced) > half:
                            break
        runs = [results + [p[1][i] for p in traced]
                for i, results in enumerate(untraced)]
        attempted, failures = check_outputs(jobs, runs, golden)

        if args.trace:
            values, notes = per_layer(tracer, untraced, traced)
            wanted = spec["per_layer"]
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(spans)
            notes.append(f"{len(tracer.spans)} spans written to {spans}")
        else:
            values, notes = end_to_end(jobs, untraced, setups)
            wanted = spec["end_to_end"]
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    # A layer that a workload never calls reports 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(f"# radiuskit benchmark, workload {args.workload}, seed "
          f"{args.seed}, trace {args.trace}; Python "
          f"{platform.python_version()}, numpy "
          f"{sys.modules['numpy'].__version__}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"# {note}")
    print(f"# failed_ratio {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} job runs)")
    for job, problem in failures[:10]:
        print(f"# FAILED {' '.join(job.argv)}: {problem}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
