"""Fast self-check of the benchmark; exits 0 when every check passes.

    python3 perfbench/selfcheck.py

Checks, from the root of a checkout:

1. BENCHMARK.json has the required keys and limits, and its per-layer names
   and units are the ones run.py emits.
2. Each workload, run for one round with one item of each class (--smoke:
   reduced item counts, the same code paths), untraced and traced, prints a
   last line with exactly correct/attempted/failed/metrics, error_rate 0,
   every end-to-end metric (untraced) or per-layer metric (traced) of
   BENCHMARK.json with its unit and a finite value, and an error_rate line.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures: list[str] = []


def expect(cond: bool, message: str):
    if not cond:
        failures.append(message)


def check_spec(spec: dict):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           f"BENCHMARK.json keys: {sorted(spec)}")
    expect(1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p.split("/")
                                                 and not p.startswith("/") for p in spec["paths"]),
           "paths")
    cmd = spec["command"]
    expect(len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in cmd), "command")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    names = []
    expect(2 <= len(spec["workloads"]) <= 8, "workload count")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               f"workload {w}")
        names.append(w["name"])
    expect(sorted(n for n in names) == sorted(workloads.SETUPS), "workload names match run.py")
    expect(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end_to_end {m}")
        names.append(m["name"])
    expect({"name": "setup_s", "unit": "s", "better": "lower"}.items()
           <= next((m for m in spec["end_to_end"] if m["name"] == "setup_s"), {}).items(),
           "setup_s metric")
    setup_bound = next((m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"), 0)
    expect(all(m["bound"] <= setup_bound for m in spec["end_to_end"]), "setup_s has the largest bound")
    expect(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per_layer {m}")
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(bool(UNIT.match(m["unit"])) and m["better"] in ("higher", "lower"), f"unit/better {m}")
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)), "names unique and well formed")
    emitted = {n: run.UNITS[kind] for n, (kind, _) in run.LAYER_METRICS.items()}
    expect(emitted == {m["name"]: m["unit"] for m in spec["per_layer"]},
           "per_layer names and units match run.py")
    expect(len(json.dumps(spec)) <= 64 * 1024, "size")


def result_of(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(spec: dict, workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        failures.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    result = result_of(proc.stdout)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in wanted}, f"{where}: metric names")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"] and isinstance(value, (int, float))
               and math.isfinite(value), f"{where}: {m['name']} = {got}")
    expect(re.search(r"^error_rate\s+0 ratio", proc.stdout, re.M) is not None, f"{where}: error_rate line")


def check_bare():
    bare = ROOT / workloads.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spinor", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=str(bare), capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"ran {w['name']} trace={trace}", flush=True)
    check_bare()
    for f in failures:
        print("FAIL", f)
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
