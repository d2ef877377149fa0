#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute):

    python3 bench/selftest.py

- every workload's small run emits each metric of BENCHMARK.json with its
  unit, with tracing off and on, and passes all its checks;
- the per-layer counts repeat exactly between two traced runs of one seed;
- a corrupted expected order and a corrupted stdout hash are counted as
  failed ops and make the run fail;
- without the library sources (only BENCHMARK.json and bench/ present) the
  benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run
from workloads import HERE, OUT, ROOT, WORKLOADS, load_goldens

SMALL = ["--small", "--seconds", "1", "--seed", "7"]


def bench(*args: str, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert expected[0] == run.END_TO_END and expected[1] == run.PER_LAYER, \
        "BENCHMARK.json and run.py name different metrics"
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for name in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            code, out = bench("--workload", name, "--trace", str(trace), *SMALL)
            res = result(out)
            assert code == 0 and res["correct"] and res["failed"] == 0, f"{name} trace={trace}:\n{out}"
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == expected[trace], f"{name} trace={trace}: metrics {sorted(got)}"
            if trace:
                counts.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"})
        assert counts[0] == counts[1], f"{name}: counts differ between runs: {counts}"
        print(f"ok  {name}: all metrics emitted with their units; counts repeat")


def check_corrupted_goldens() -> None:
    goldens = load_goldens()
    cases = {
        "order-orbit": lambda g: g["order_121"].__setitem__("11.2.1", str(int(g["order_121"]["11.2.1"]) + 1)),
        "cli-oneshot": lambda g: g["cli"]["classify 725 5"].__setitem__("sha256", "0" * 64),
    }
    for name, corrupt in cases.items():
        bad = copy.deepcopy(goldens)
        corrupt(bad)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run.main(["--workload", name, *SMALL], goldens=bad)
        res = result(buf.getvalue())
        assert code == 1 and not res["correct"] and res["failed"] >= 1, f"{name}:\n{buf.getvalue()}"
        print(f"ok  {name}: corrupted golden -> {res['failed']} of {res['attempted']} ops failed, exit 1")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, out = bench("--workload", "order-orbit", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and '"correct"' not in out, f"bare directory: exit {code}\n{out}"
    print(f"ok  without src/: exit {code}, no result printed")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_metrics()
    check_corrupted_goldens()
    check_bare_directory()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
