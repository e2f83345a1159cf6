"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py [--seconds 2]

Checks that ``BENCHMARK.json`` keeps the benchmark contract and matches the
metric tables in ``run.py``; runs every workload for a couple of seconds,
untraced and traced, and checks each result line (keys, units, correctness,
non-zero end-to-end values, ``bnn.coverage`` >= 0.9 on training); and
checks that the harness refuses to run without the library source.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BENCH_DIR, ROOT  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import TRAIN_WORKLOADS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def check_spec() -> dict:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    check(len(raw) <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    spec = json.loads(raw)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"unexpected top-level keys {sorted(spec)}")
    check(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    for path in spec["paths"]:
        check(bool(PATH.match(path)) and ".." not in path.split("/"), f"bad path {path!r}")
    check(1 <= len(spec["command"]) <= 32, "1 to 32 command strings")
    for part in spec["command"]:
        check(len(part) <= 200 and not part.startswith("/") and ".." not in part,
              f"bad command part {part!r}")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names: set[str] = set()
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, f"workload keys {sorted(workload)}")
        check("\n" not in workload["why"] and len(workload["why"]) <= 200,
              f"why of {workload['name']} is over 200 characters or multi-line")
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, f"keys of {metric}")
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, f"keys of {metric}")
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        check(bool(NAME.match(entry["name"])) and entry["name"] not in names,
              f"bad or repeated name {entry['name']!r}")
        names.add(entry["name"])
        if "unit" in entry:
            check(bool(UNIT.match(entry["unit"])), f"bad unit {entry['unit']!r}")
            check(entry["better"] in ("lower", "higher"), f"better of {entry['name']}")
    check(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128,
          "metric counts")
    setup = next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), None)
    check(setup is not None and setup["unit"] == "s" and setup["better"] == "lower",
          "setup_s must be an end-to-end metric in s, lower is better")
    check(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list differs from run.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "end-to-end metrics differ from run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "per-layer metrics differ from run.py")
    return spec


def run_once(workload: str, seconds: int, trace: int, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload: str, seconds: int, trace: int) -> None:
    completed = run_once(workload, seconds, trace, ROOT)
    check(completed.returncode == 0, f"{workload} trace={trace} exited {completed.returncode}:\n"
          f"{completed.stderr[-3000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{workload}: failures {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    expected = PER_LAYER if trace else END_TO_END
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    check(units == expected, f"{workload} trace={trace}: metric names or units differ")
    for name, metric in result["metrics"].items():
        check(math.isfinite(metric["value"]), f"{workload}: {name} is not finite")
        if not trace:
            check(metric["value"] != 0, f"{workload}: end-to-end {name} is 0")
    if trace and workload in TRAIN_WORKLOADS:
        coverage = result["metrics"]["bnn.coverage"]["value"]
        check(coverage >= 0.9, f"{workload}: bnn.coverage {coverage:.3f} < 0.9")
    print(f"ok  {workload} trace={trace} attempted={result['attempted']}")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_once(WORKLOADS[0], 1, 0, bare)
    check(completed.returncode != 0, "the harness ran without the library source")
    check(completed.stdout.strip() == "", "the harness printed a result without the library source")
    print("ok  refuses to run without src/")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    check_spec()
    print("ok  BENCHMARK.json")
    check_refuses_without_source()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, args.seconds, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
