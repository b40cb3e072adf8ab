"""altdet benchmark: one workload, one seed, exact checks, one JSON result line.

    python3 perfbench/run.py --workload {spinor,engine,latin,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports altdet from ``src/`` there.
Load is a closed loop from one process and one client: each item starts when
the previous one has finished and been checked.  The loop runs whole rounds
of the workload's fixed item mix until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics (items_per_s, latency_p50_ms,
latency_tail_ms, setup_s, peak_rss_mb).  ``--trace 1`` runs the same rounds
for half the time untraced and half traced, and prints the per-layer
metrics of the traced half (see tracing.py), per item, with the tracing
overhead.  Both print a self-describing report line (machine,
commit, seed, threads, tail percentile, error_rate with its attempted
count) before the result, and write it, with the spans when traced, under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10
SPAN_CAP = 100_000

# Per-layer metric -> (kind, function keys).  Counts and self times are per
# item of the traced half.  Functions grouped under one metric are
# one layer entry point and the helpers it owns.
LAYER_METRICS = {
    "exact.det.calls": ("calls", ["exact.det"]),
    "exact.det.self_s": ("self", ["exact.det"]),
    "exact.poly_mul.calls": ("calls", ["exact.poly_mul"]),
    "exact.poly_mul.self_s": ("self", ["exact.poly_mul"]),
    "exact.poly_det.calls": ("calls", ["exact.poly_det"]),
    "exact.poly_det.self_s": ("self", ["exact.poly_det"]),
    "exact.errors": ("errors", "exact"),
    "perms.enumerate_product.terms": ("yields", ["perms.enumerate_product"]),
    "perms.enumerate_product.self_s": ("self", ["perms.enumerate_product"]),
    "perms.enumerate_signed.perms": ("yields", ["perms.enumerate_signed"]),
    "perms.enumerate_signed.self_s": ("self", ["perms.enumerate_signed"]),
    "perms.act.calls": ("calls", ["perms.act"]),
    "perms.act.self_s": ("self", ["perms.act"]),
    "perms.errors": ("errors", "perms"),
    "engine.alternating_sum.calls": ("calls", ["engine.alternating_sum"]),
    "engine.alternating_sum.self_s": ("self", ["engine.alternating_sum"]),
    "engine.form_eval.calls": ("calls", ["engine.form_eval"]),
    "engine.form_eval.self_s": ("self", ["engine.form_eval"]),
    "engine.form_eval.nonzero_ratio": ("nonzero_ratio", ["engine.form_eval"]),
    "engine.errors": ("errors", "engine"),
    "onn.alon_tarsi_count.calls": ("calls", ["onn.alon_tarsi_count"]),
    "onn.alon_tarsi_count.self_s": ("self", ["onn.alon_tarsi_count"]),
    "onn.verify_onn.calls": ("calls", ["onn.verify_onn"]),
    "onn.verify_onn.self_s": ("self", ["onn.verify_onn"]),
    "onn.rota_search.calls": ("calls", ["onn.rota_search"]),
    "onn.rota_search.self_s": ("self", ["onn.rota_search"]),
    "onn.rota_search.det_tests": ("under", ("onn.rota_search", "exact.det")),
    "onn.rota_search.accept_ratio": ("under_ratio", ("onn.rota_search", "exact.det")),
    "onn.errors": ("errors", "onn"),
    "svrtan.verify_svrtan.calls": ("calls", ["svrtan.verify_svrtan"]),
    "svrtan.verify_svrtan.self_s": ("self", ["svrtan.verify_svrtan"]),
    "svrtan.choice_det.calls": ("calls", ["svrtan.choice_det"]),
    "svrtan.choice_det.self_s": ("self", ["svrtan.choice_det"]),
    "svrtan.choice_det.nonzero_ratio": ("nonzero_ratio", ["svrtan.choice_det"]),
    "svrtan.svrtan_search.calls": ("calls", ["svrtan.svrtan_search"]),
    "svrtan.svrtan_search.self_s": ("self", ["svrtan.svrtan_search"]),
    "svrtan.svrtan_search.choices_tried": ("under", ("svrtan.svrtan_search", "exact.poly_det")),
    "svrtan.nonzero_term_census.self_s": ("self", ["svrtan.nonzero_term_census"]),
    "svrtan.errors": ("errors", "svrtan"),
    "instances.generate.calls": ("calls", [
        "instances.random_matrix_tuple", "instances.random_colorful_instance",
        "instances.random_spinor_instance", "instances.random_dense_form"]),
    "instances.generate.self_s": ("self", [
        "instances.random_matrix_tuple", "instances.random_colorful_instance",
        "instances.random_spinor_instance", "instances.random_dense_form"]),
    "instances.load.calls": ("calls", ["instances.load_instance"]),
    "instances.load.self_s": ("self", ["instances.load_instance", "instances.parse_instance_doc"]),
    "instances.digest.self_s": ("self", [
        "instances.doc_digest", "instances.canonical_json", "instances.instance_to_doc"]),
    "instances.errors": ("errors", "instances"),
    "cli.run.calls": ("calls", ["cli.run"]),
    "cli.run.self_s": ("self", "cli"),
    "cli.import_s": ("import", None),
    "cli.errors": ("errors", "cli"),
    "trace.overhead_ratio": ("overhead", None),
    "trace.self_coverage": ("coverage", None),
}

UNITS = {"calls": "count/item", "self": "s/item", "errors": "count/item", "yields": "count/item",
         "under": "count/item", "nonzero_ratio": "ratio", "under_ratio": "ratio", "import": "s",
         "overhead": "ratio", "coverage": "ratio"}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# -- description of the run --------------------------------------------------


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit_id() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
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
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "altdet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# -- set-up -----------------------------------------------------------------


def fresh_import(names):
    """Import the altdet modules anew, so each set-up pays for the import."""
    for mod in [m for m in sys.modules if m == "altdet" or m.startswith("altdet.")]:
        del sys.modules[mod]
    for name in names:
        importlib.import_module(name)
    return sys.modules["altdet"]


def run_item(item, tracer=None, index=0):
    """Call, time and check one item; returns (ok, seconds, error text)."""
    frame = tracer.begin_item(index) if tracer else None
    started = time.perf_counter()
    try:
        result = item.call()
    except Exception as exc:  # a raising item is a failed item, counted
        elapsed = time.perf_counter() - started
        if tracer:
            tracer.end_item(frame, True)
        return False, elapsed, f"{item.klass}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    if tracer:
        tracer.end_item(frame, False)
    try:
        ok = bool(item.check(result))
    except Exception as exc:
        return False, elapsed, f"{item.klass}: check raised {type(exc).__name__}: {exc}"
    return ok, elapsed, None if ok else f"{item.klass}: wrong result {result!r:.200}"


def set_up(name: str, seed: int, threads: int):
    """Import, generate inputs, write input files and warm up, SETUP_REPEATS
    times; returns the last workload, the set-up times, the number of
    warm-up items run and the warm-up failures (counted like any item's)."""
    times = []
    warmed = 0
    errors = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        api = fresh_import(workloads.IMPORTS[name])
        wl = workloads.SETUPS[name](api, seed, threads, ROOT)
        for item in wl.warmup:
            ok, _, err = run_item(item)
            warmed += 1
            if not ok:
                errors.append(err)
        times.append(time.perf_counter() - started)
    return wl, times, warmed, errors


# -- the loop -----------------------------------------------------------------


class Loop:
    """Whole rounds of items, one at a time, until the time is up."""

    def __init__(self):
        self.latencies: list[float] = []
        self.classes: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0
        self.wall = 0.0

    def run(self, wl, seconds: float, traced_path=False, tracer=None):
        started = time.perf_counter()
        r = 0
        while True:
            for item in wl.round(r, traced_path):
                ok, elapsed, err = run_item(item, tracer, self.attempted)
                self.attempted += 1
                if ok:
                    self.latencies.append(elapsed)
                    self.classes.setdefault(item.klass, []).append(elapsed)
                else:
                    self.failed += 1
                    if len(self.errors) < 20:
                        self.errors.append(err)
            r += 1
            if time.perf_counter() - started >= seconds:
                break
        self.rounds = r
        self.wall = time.perf_counter() - started
        return self

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def items_per_s(self) -> float:
        return self.completed / self.wall

    def tail(self):
        """Latency with TAIL_BEYOND samples above it (the maximum in a run too
        short to have them), its percentile, samples beyond and sample count."""
        xs = sorted(self.latencies)
        if not xs:
            return 0.0, 0.0, 0, 0
        k = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
        return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k, len(xs)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kb = resource.getrusage(who).ru_maxrss
    return kb / 1024.0


# -- per-layer metrics --------------------------------------------------------


def import_seconds(args, env) -> float:
    """Sum of altdet's self times in `python -X importtime <args>`, one subprocess."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    total_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)", line)
        if m and (m.group(2) == "altdet" or m.group(2).startswith("altdet.")):
            total_us += int(m.group(1))
    return total_us / 1e6


def layer_metrics(tracer, traced: Loop, overhead: float, import_s):
    items = max(traced.attempted, 1)
    stats = tracer.stats
    out, detail, absent = {}, {}, []

    def keys_of(spec):
        if isinstance(spec, str):  # a whole layer
            return [k for k in stats if k.startswith(spec + ".")]
        return spec

    for name, (kind, spec) in LAYER_METRICS.items():
        base = None
        if kind in ("calls", "self", "yields", "nonzero_ratio"):
            keys = keys_of(spec)
            # a name missing from a loaded module is absent; an unloaded layer is idle
            if any(k not in tracer.wrapped and k.split(".", 1)[0] in tracer.layers for k in keys):
                absent.append(name)
            st = [stats[k] for k in keys if k in stats]
            if kind == "calls":
                value = sum(s[tracing.CALLS] for s in st) / items
            elif kind == "self":
                value = sum(s[tracing.SELF] for s in st) / items
            elif kind == "yields":
                value = sum(s[tracing.YIELDS] for s in st) / items
            else:
                base = sum(s[tracing.CALLS] for s in st)
                value = sum(s[tracing.NONZERO] for s in st) / base if base else 0.0
        elif kind == "errors":
            value = tracer.layer_errors.get(spec, 0) / items
        elif kind in ("under", "under_ratio"):
            counts = tracer.under.get(tuple(spec))
            if counts is None:
                absent.append(name)
                counts = [0, 0]
            if kind == "under":
                value = counts[0] / items
            else:
                base = counts[0]
                value = counts[1] / base if base else 0.0
        elif kind == "import":
            value = statistics.median(import_s)
            base = len(import_s)
        elif kind == "overhead":
            value = overhead
        else:  # coverage: layer self time over the traced item time
            item_time = stats.get(tracing.ITEM, [0, 0.0])[tracing.SELF]
            layer_time = sum(s[tracing.SELF] for k, s in stats.items() if k != tracing.ITEM)
            total = layer_time + item_time
            value = layer_time / total if total else 0.0
            detail[name] = {"layer_self_s": layer_time, "bench_glue_self_s": item_time,
                            "traced_item_wall_s": sum(traced.latencies)}
        out[name] = {"value": value, "unit": UNITS[kind]}
        if base is not None:
            detail.setdefault(name, {"base": base})
    return out, detail, absent


def per_function(tracer, items):
    rows = {}
    for key, st in sorted(tracer.stats.items()):
        rows[key] = {"calls": st[tracing.CALLS], "self_s": round(st[tracing.SELF], 6),
                     "self_s_per_item": st[tracing.SELF] / max(items, 1),
                     "errors": st[tracing.ERRORS], "yields": st[tracing.YIELDS]}
    return rows


# -- main -----------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one item of each class per round, for the self-check")
    return p.parse_args(argv)


def one_per_class(items):
    seen = set()
    return [it for it in items if not (it.klass in seen or seen.add(it.klass))]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "altdet" / "__init__.py").is_file():
        fail(f"no altdet package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / workloads.OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)

    name = args.workload
    threads = min(workloads.THREADS[name], usable_cores())
    wl, setup_times, warmed, warm_errors = set_up(name, args.seed, threads)
    if args.smoke:
        wl.round_sets = [one_per_class(items) for items in wl.round_sets]
        if wl.trace_round_sets:
            wl.trace_round_sets = [one_per_class(items) for items in wl.trace_round_sets]
            wl.argvs = wl.argvs[::6]

    report = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads": threads,
        "threads_by_workload": {w: min(t, usable_cores()) for w, t in workloads.THREADS.items()},
        "load": "closed loop, one process, one client; next item starts after the previous one is checked",
        "machine": {"nproc": usable_cores(), "cpu_model": cpu_model(),
                    "python": platform.python_version(), "platform": platform.platform()},
        "commit": commit_id(),
        "source_digest": source_digest(),
        "setup_s_samples": setup_times,
    }
    if wl.argvs:
        report["argvs"] = wl.argvs

    if args.trace == 0:
        loop = Loop().run(wl, args.seconds)
        tail, pct, beyond, samples = loop.tail()
        metrics = {
            "items_per_s": {"value": loop.items_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(loop.latencies) if loop.latencies else 0.0,
                               "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(children=name == "cli"), "unit": "MB"},
        }
        report["latency_tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": samples}
        report["peak_rss_of"] = "item subprocesses (RUSAGE_CHILDREN)" if name == "cli" else "this process"
        report["class_latency_ms"] = {k: {"n": len(v), "median": 1000 * statistics.median(v)}
                                      for k, v in sorted(loop.classes.items())}
        loops = [loop]
    else:
        half = args.seconds / 2
        plain = Loop().run(wl, half, traced_path=True)
        tracer = tracing.Tracer(SPAN_CAP)
        tracer.install({k: v for k, v in sys.modules.items()
                        if k == "altdet" or k.startswith("altdet.")})
        try:
            traced = Loop().run(wl, half, traced_path=True, tracer=tracer)
        finally:
            tracer.restore()
        overhead = traced.items_per_s / plain.items_per_s if plain.items_per_s else 0.0
        # cli: one subprocess per argv; in-process workloads: the import their set-up pays
        if name == "cli":
            import_args = [["-m", "altdet.cli", *a] for a in wl.argvs]
        else:
            import_args = [["-c", "import " + ", ".join(workloads.IMPORTS[name])]] * 3
        env = workloads.cli_env(ROOT / "src")
        import_s = [import_seconds(a, env) for a in import_args]
        metrics, detail, absent = layer_metrics(tracer, traced, overhead, import_s)
        report["trace_detail"] = detail
        report["absent_metrics"] = absent
        report["tracing_overhead"] = {"traced_items_per_s": traced.items_per_s,
                                      "untraced_items_per_s": plain.items_per_s, "ratio": overhead}
        report["per_function"] = per_function(tracer, traced.attempted)
        report["spans"] = {"recorded": len(tracer.cols["idx"]), "dropped_over_cap": tracer.dropped}
        report["not_measured"] = ["pool wait under threads=2: not visible from outside the program; "
                                  "worker-thread calls are counted, their time stays in the span "
                                  "that started the pool"]
        if name == "cli":
            report["path_note"] = ("cli per-layer numbers run each argv in-process through "
                                   "altdet.cli.main and run with captured output, not the subprocess path "
                                   "the end-to-end metrics time; cli.import_s comes from one "
                                   "`python -X importtime` subprocess per argv")
        spans_path = out_dir / f"spans-{name}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        report["spans"]["file"] = str(spans_path.relative_to(ROOT))
        loops = [plain, traced]

    attempted = warmed + sum(lp.attempted for lp in loops)
    failed = len(warm_errors) + sum(lp.failed for lp in loops)
    report["attempted"] = attempted
    report["failed"] = failed
    report["warmup_items"] = warmed
    report["error_rate"] = {"value": failed / attempted, "unit": "ratio", "attempted": attempted}
    report["rounds"] = [lp.rounds for lp in loops]
    report["loop_wall_s"] = [lp.wall for lp in loops]
    report["errors"] = (warm_errors + [e for lp in loops for e in lp.errors])[:20]
    report["metrics"] = metrics

    (out_dir / f"report-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':40s} {failed / attempted:.6g} ratio (attempted {attempted})")
    print("report " + json.dumps(report, default=str, separators=(",", ":")))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
