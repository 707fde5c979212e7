"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Each workload runs at a tiny size, untraced and traced, with every
   answer correct and every metric of BENCHMARK.json printed with its unit.
2. Two traced runs with the same seed, in separate processes, report
   identical work counters.
3. A planted wrong expectation (the non-closed `plectic --omega
   x1*dx2^dx3` claimed to pass) makes jobs fail.
4. A clean copy of the checkout (src/, bench/ and BENCHMARK.json, with
   nothing installed) runs; a copy without src/ exits non-zero and
   prints no result.

Exits 0 when every part passes.  Scratch copies go under .bench_out/.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = run.ROOT
SCRATCH = run.OUT / "selftest"
# Counters that depend on the seed alone; times and shares do not.
DETERMINISTIC_UNITS = {"count", "chars", "bytes", "calls/case", "calls/job"}


def bench_command(workload: str, seed: int, trace: int) -> list[str]:
    return [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(bench_command(workload, seed, trace), cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def expect(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_metrics(result: dict, declared: list[dict], label: str, failures: list[str]) -> None:
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    wanted = {metric["name"]: metric["unit"] for metric in declared}
    expect(printed == wanted, f"{label}: metrics and units match BENCHMARK.json", failures)
    expect(
        result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
        f"{label}: {result['attempted']} jobs, {result['failed']} wrong",
        failures,
    )


def tiny_runs(spec: dict, failures: list[str]) -> None:
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, stderr = run_bench(workload, 5, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{label}: exits 0 with a result", failures)
            if result is not None:
                check_metrics(result, declared, label, failures)
            elif stderr:
                print(stderr[-2000:])


def counters_repeat(spec: dict, failures: list[str]) -> None:
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    first, second = (run_bench("io", 9, 1)[1] for _ in range(2))
    if first is None or second is None:
        expect(False, "counter repeat: both traced runs give a result", failures)
        return
    names = [name for name, unit in units.items() if unit in DETERMINISTIC_UNITS]
    differ = [name for name in names if first["metrics"][name] != second["metrics"][name]]
    expect(not differ, f"counter repeat: {len(names)} counters equal across two runs ({differ})", failures)


def planted_error(failures: list[str]) -> None:
    bad = workloads.FIXTURES["plectic-open-3-1"]
    claimed = {name: True for name in bad.checks}
    workloads.FIXTURES["plectic-open-3-1"] = dataclasses.replace(bad, checks=claimed)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            result = run.run("io", 3, 1.0, False)
    finally:
        workloads.FIXTURES["plectic-open-3-1"] = bad
    expect(result["failed"] > 0 and not result["correct"],
           f"planted expectation: {result['failed']} of {result['attempted']} jobs wrong", failures)


def clean_checkouts(failures: list[str]) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    clean, bare = SCRATCH / "clean", SCRATCH / "bare"
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for target in (clean, bare):
        shutil.copytree(ROOT / "bench", target / "bench", ignore=ignore)
        shutil.copy2(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(ROOT / "src", clean / "src", ignore=ignore)
    try:
        code, result, _ = run_bench("io", 4, 0, cwd=clean)
        expect(code == 0 and result is not None and result["correct"], "clean checkout: runs from src/", failures)
        code, result, _ = run_bench("io", 4, 0, cwd=bare)
        expect(code != 0 and result is None, f"checkout without src/: exit {code}, no result", failures)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    tiny_runs(spec, failures)
    counters_repeat(spec, failures)
    planted_error(failures)
    clean_checkouts(failures)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
