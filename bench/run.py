"""Seeded end-to-end benchmark of the hicourant command line.

    python3 bench/run.py --workload {axioms,structures,io} --seed N --seconds S --trace {0,1}

Run from a source checkout: the package is imported from `src/`, not
from an installed copy.  One client drives `hicourant.cli.main(argv)`
in-process, one job at a time (a closed loop, no threads or worker
processes), and checks every output against its known answer (see
workloads.py and verify.py).  The last line on stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of an untraced run: set-up
time, median and 90th-percentile job time, verdict cases per second of
job time and peak resident memory.  Every time it reports is rescaled to
the speed of a reference host by a reference loop timed around each call
(see host_scaled).  --trace 1 runs every job twice, plain and with the
per-layer wrappers of tracer.py, and reports the per-layer metrics over
the first COUNTED_ROUNDS rounds, whose counters depend only on the seed;
the traced run also writes its counters, per-job records and spans to
.bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Rounds whose work counters the traced run reports; sized so that the
# paired plain and traced runs of them fit in one run of the benchmark.
COUNTED_ROUNDS = {"axioms": 2, "structures": 3, "io": 6}
SETUP_REPEATS = 9
# The time of reference.loop_s on the reference host (a 2-vCPU Intel Xeon
# VM, Python 3.11.7) when nothing slowed it, and the power of the loop's
# slowdown by which a job slowed on that host (fitted over pairs of runs
# of the same job: 0.69 to 0.77 on the three workloads).
REFERENCE_S = 0.0004
HOST_EXPONENT = 0.73


class ProgramMissing(RuntimeError):
    """The checkout holds no importable hicourant package under src/."""


def load_program():
    sys.path.insert(0, str(SRC))
    try:
        import hicourant.cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import hicourant from {SRC}: {exc}") from exc
    location = Path(hicourant.__file__).resolve().parent.parent
    if location != SRC.resolve():
        raise ProgramMissing(f"hicourant was imported from {location}, not from {SRC}")
    return hicourant.cli


def host_scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """`wall_s` rescaled to the reference host, given the reference loop's
    times just before and just after the call.

    The VM the benchmark was tuned on runs the same code at speeds up to
    about 2x apart.  It switches between them within tenths of a second,
    and over minutes it spends anything from a tenth to nine tenths of
    its time in the slow state, so raw wall times of two runs of the same
    code differed by up to 50%.  The loop's time around a call measures
    the host's speed during it; a job slows by the loop's slowdown to the
    power HOST_EXPONENT.
    """
    return wall_s * (REFERENCE_S / ((before_s + after_s) / 2)) ** HOST_EXPONENT


def measure_setup(workload: str, seed: int) -> tuple[float, list]:
    """Median over SETUP_REPEATS of: a fresh interpreter importing the CLI,
    plus generating the counted rounds of jobs, each rescaled to the
    reference host.  The fresh interpreter times the reference loop
    before and after its import, as it may run on another CPU than
    this process; the two loop runs are not counted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), str(ROOT / "bench"), env.get("PYTHONPATH"))))
    command = [sys.executable, "-c",
               "import reference; b = reference.loop_s(); import hicourant.cli; print(b, reference.loop_s())"]

    def fresh_import_s() -> float:
        start = time.perf_counter()
        proc = subprocess.run(command, env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
        wall_s = time.perf_counter() - start
        before, after = map(float, proc.stdout.split())
        return host_scaled(wall_s - before - after, before, after)

    fresh_import_s()  # writes the bytecode cache, which users pay once
    samples, rounds = [], []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_s()
        before = reference.loop_s()
        start = time.perf_counter()
        rounds = [workloads.round_jobs(workload, seed, index) for index in range(COUNTED_ROUNDS[workload])]
        samples.append(import_s + host_scaled(time.perf_counter() - start, before, reference.loop_s()))
    return statistics.median(samples), rounds


def run_job(cli, job) -> tuple[int | None, str, float, str]:
    """Exit code, captured stdout, wall seconds and any escaped exception of one call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except (Exception, SystemExit) as exc:  # a crash is a wrong answer, not a benchmark failure
        return None, out.getvalue(), time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start, ""


class Tally:
    """Job outcomes of one run."""

    def __init__(self, verify):
        self.verify = verify
        self.attempted = 0
        self.failed = 0
        self.cases = 0
        self.witnesses = 0
        self.problems: list[str] = []

    def judge(self, job, outcomes) -> tuple[int, int]:
        """Count one job whose runs gave `outcomes`; return its cases and witnesses."""
        self.attempted += 1
        problems, cases, witnesses = [], 0, 0
        for code, stdout, _, crash in outcomes:
            if crash:
                problems.append(f"raised {crash}")
                continue
            found, cases, witnesses = self.verify.check_job(job, code, stdout)
            problems.extend(found)
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.label} {' '.join(job.argv)}: {p}" for p in problems[:2])
        return cases, witnesses


def round_stream(workload: str, seed: int, first_rounds: list):
    """The workload's rounds in order; those past the pre-generated ones are made on demand."""
    for index in itertools.count():
        yield first_rounds[index] if index < len(first_rounds) else workloads.round_jobs(workload, seed, index)


def measure_plain(cli, tally, rounds, seconds: float) -> dict:
    """Time whole rounds, starting one only while the mean round time so far
    says that it ends within `seconds`; each job's time is rescaled by host_scaled."""
    start = time.perf_counter()
    times, round_s = [], []
    while not round_s or time.perf_counter() + statistics.mean(round_s) <= start + seconds:
        began = time.perf_counter()
        for job in next(rounds):
            before = reference.loop_s()
            outcome = run_job(cli, job)
            times.append(host_scaled(outcome[2], before, reference.loop_s()))
            cases, _ = tally.judge(job, [outcome])
            tally.cases += cases
        round_s.append(time.perf_counter() - began)
    print(f"{len(times)} jobs timed", file=sys.stderr)
    deciles = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
    return {
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (deciles[8], "s"),
        "cases_per_s": (tally.cases / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure_traced(cli, tally, rounds, seconds: float, workload: str, seed: int) -> dict:
    counted_rounds = COUNTED_ROUNDS[workload]
    counted_tracer = tracer.Tracer()
    deadline = time.perf_counter() + seconds
    plain_total = traced_total = counted_total = 0.0
    records = []
    stream = ((index, job) for index, jobs in enumerate(rounds) for job in jobs)
    for index, job in stream:
        counted = index < counted_rounds
        if not counted and time.perf_counter() >= deadline:
            break
        plain = run_job(cli, job)
        active = counted_tracer if counted else tracer.Tracer()
        active.job = len(records) if counted else None
        before = Counter(active.counts)
        active.install()
        try:
            traced = run_job(cli, job)
        finally:
            active.uninstall()
        cases, witnesses = tally.judge(job, [plain, traced])
        plain_total += plain[2]
        traced_total += traced[2]
        if counted:
            tally.cases += cases
            tally.witnesses += witnesses
            counted_total += traced[2]
            delta = active.counts - before
            records.append(
                {"job": len(records), "label": job.label, "argv": list(job.argv),
                 "plain_s": plain[2], "traced_s": traced[2], "counts": dict(sorted(delta.items()))}
            )
    counts, self_s, group_s = counted_tracer.counts, counted_tracer.self_s, counted_tracer.group_s
    nambu_jobs = sum(1 for record in records if record["argv"][:2] == ["check", "nambu"])
    metrics = {
        "scalar.mul_calls": (counts["scalar.mul.calls"], "count"),
        "scalar.term_pairs": (counts["scalar.term_pairs"], "count"),
        "scalar.add_calls": (counts["scalar.add.calls"], "count"),
        "scalar.partial_calls": (counts["scalar.partial.calls"], "count"),
        "exterior.lie_form.calls": (counts["exterior.lie_form.calls"], "count"),
        "exterior.ext_d.calls": (counts["exterior.ext_d.calls"], "count"),
        "exterior.i_vec.calls": (counts["exterior.i_vec.calls"], "count"),
        "exterior.wedge.calls": (counts["exterior.wedge.calls"], "count"),
        "exterior.contract.calls": (counts["exterior.contract.calls"], "count"),
        "courant.dorfman.calls": (counts["courant.dorfman_bracket.calls"], "count"),
        "courant.courant.calls": (counts["courant.courant_bracket.calls"], "count"),
        "courant.brackets_per_case": (
            counts["courant.suite_brackets"] / max(counts["courant.suite_cases"], 1),
            "calls/case",
        ),
        "nambu.fundamental_calls": (counts["nambu.np_fundamental_check.calls"], "count"),
        "nambu.fundamental_tuples": (counts["nambu.fundamental_tuples"], "count"),
        "nambu.fundamental_per_job": (
            counts["nambu.np_fundamental_check.calls"] / max(nambu_jobs, 1),
            "calls/job",
        ),
        "plectic.rank_calls": (counts["plectic.rank.calls"], "count"),
        "dsl.parse_calls": (counts["dsl.parse.calls"], "count"),
        "dsl.parse_chars": (counts["dsl.parse.size"], "chars"),
        "dsl.parse_s": (group_s["dsl.parse"], "s"),
        "dsl.render_calls": (counts["dsl.render.calls"], "count"),
        "dsl.render_chars": (counts["dsl.render.size"], "chars"),
        "dsl.render_s": (group_s["dsl.render"], "s"),
        "cli.report_bytes": (counts["cli.report.size"], "bytes"),
        "cli.report_s": (group_s["cli.report"], "s"),
    }
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.share"] = (self_s[layer] / counted_total, "ratio")
    metrics.update(
        {
            "checks.cases": (tally.cases, "count"),
            "checks.failures": (tally.witnesses, "count"),
            "trace.jobs": (len(records), "count"),
            "trace.overhead": (traced_total / plain_total, "ratio"),
        }
    )
    meta = {"workload": workload, "seed": seed, "counted_rounds": counted_rounds}
    counted_tracer.dump(OUT / f"trace-{workload}-seed{seed}.json", meta, records)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    cli = load_program()
    import verify  # imports hicourant, so only once load_program has found it

    setup_s, first_rounds = measure_setup(workload, seed)
    rounds = round_stream(workload, seed, first_rounds)
    tally = Tally(verify)
    if trace:
        metrics = measure_traced(cli, tally, rounds, seconds, workload, seed)
    else:
        metrics = {"setup_s": (setup_s, "s"), **measure_plain(cli, tally, rounds, seconds)}
    for problem in tally.problems[:10]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ProgramMissing, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
