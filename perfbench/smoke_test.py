"""Smoke test of the benchmark itself, on a reduced job list per workload.

    python3 perfbench/smoke_test.py
    python3 -m pytest perfbench/smoke_test.py

It is not part of the tier-1 suite, which collects only tests/.  Every
workload runs with --smoke in both modes: each metric BENCHMARK.json names
must be printed with its unit, no job may fail, and in a directory holding
only the benchmark (no src/radiuskit) the command must fail without
printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, *args):
    argv = SPEC["command"] + [str(a) for a in args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_every_metric_printed_and_no_job_fails():
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, "--workload", workload["name"], "--seed", 7,
                       "--seconds", 1, "--trace", trace, "--smoke")
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {name: m["unit"] for name, m in
                    result["metrics"].items()} == want
            for name, unit in want.items():
                assert any(line.startswith(name + " ") and
                           line.endswith(" " + unit) for line in lines), name
            assert result["correct"] is True
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert any(line.startswith("# failed_ratio 0 ")
                       for line in lines)


def test_fails_without_the_program():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", SPEC["workloads"][0]["name"],
                   "--seed", 1, "--seconds", 1, "--trace", 0)
        assert done.returncode != 0
        assert not done.stdout.strip()
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    test_fails_without_the_program()
    test_every_metric_printed_and_no_job_fails()
    print("benchmark smoke test passed")
