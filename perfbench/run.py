"""holderforms benchmark: time to verdict of the CLI, end to end and per layer.

    python3 perfbench/run.py --workload decay --seed 0 --seconds 40 --trace 0

Run from the repository root.  A workload is a fixed sequence of
``holderforms`` subcommands; one pass runs each of them once, in order, in
a fresh interpreter (``child.py``), because every real ``holderforms`` call
is a new process and pays for its lazily cached constants again.  Passes
repeat for ``--seconds`` (at least two), and each metric is the median over
passes.  See README.md for why each workload exists and what it leaves
unmeasured.

``--trace 0`` reports the end-to-end metrics (no tracing in any process).
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics from the traced ones (``tracer.py``).

Every run checks the program's outputs: each PASS/FAIL line is an
assertion, and so are each invocation's exit code, each CSV it must write,
the agreement of every CSV digest with the first pass of the run (traced
or not), and, when tracing, the exact repetition of the work counts.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit, ``fail_frac`` and the environment stamp.  The same stamp and metrics
are stored in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# The CSV files each subcommand writes at its defaults.
CSVS = {
    "decay": ("decay.csv",),
    "inequality": ("inequality.csv",),
    "mollify-check": ("regularization.csv",),
    "stokes-check": ("stokes.csv",),
    "isoperimetric": ("isoperimetric.csv",),
    "criteria": ("criteria.csv",),
    "pisot": ("pisot.csv",),
}
WORKLOADS = {
    "decay": ("decay",),
    "family": ("inequality",),
    "quick": ("mollify-check", "stokes-check", "isoperimetric", "criteria",
              "pisot"),
}
MIN_PASSES = 2          # CSV digests are compared across passes of one run
SETUP_PROBES = 9        # import-only interpreters per run, for setup_s
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
# Per-layer metric -> unit.  A name is read from the tracer's counters when
# it is there, else "<span>.calls" and "<span>.self_s" from the span.
# chains.quad_steps_per_call and the trace.* metrics are derived in
# layer_values and layer_report.
PER_LAYER = {
    "chains.measure_disk.calls": "count",
    "chains.measure_disk.self_s": "s",
    "chains.curve_diameter.self_s": "s",
    "chains.curve_length.self_s": "s",
    "chains.disk_area.self_s": "s",
    "chains.integrate_one_form.calls": "count",
    "chains.integrate_one_form.self_s": "s",
    "chains.integrate_two_form.self_s": "s",
    "chains.exterior_derivative.self_s": "s",
    "chains.adaptive_quadrature.calls": "count",
    "chains.gl_rules": "count",
    "chains.quad_steps_per_call": "rules/call",
    "grids.holder_seminorm.calls": "count",
    "grids.holder_seminorm.self_s": "s",
    "grids.holder_seminorm.pairs": "count",
    "grids.evaluate.points": "count",
    "grids.evaluate.self_s": "s",
    "grids.make_weierstrass.self_s": "s",
    "mollify.kernel_constants_s": "s",
    "mollify.mollify.calls": "count",
    "mollify.mollify.self_s": "s",
    "mollify.verify_regularization.self_s": "s",
    "mollify.gl_rules": "count",
    "inequality.verify_main_inequality.self_s": "s",
    "inequality.disks": "count",
    "inequality.one_form_cnorm.self_s": "s",
    "inequality.mollification_split_check.self_s": "s",
    "decay.decay_bound_series.self_s": "s",
    "decay.strips": "count",
    "dynamics.spectral_rates.calls": "count",
    "dynamics.spectral_rates.self_s": "s",
    "dynamics.pisot_example.self_s": "s",
    "experiments.weierstrass_form.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# Counts that must repeat exactly across the traced passes of one run.
EXACT_COUNTS = ("chains.gl_rules", "chains.measure_disk.calls",
                "decay.strips", "inequality.disks",
                "grids.holder_seminorm.pairs", "grids.evaluate.points")


class Gate:
    """Assertions attempted and failed over one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"benchmark check failed: {what}", file=sys.stderr)
        return ok


def run_child(result: Path, flags, argv=()) -> tuple:
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result),
           *flags, "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "timed out"
    try:
        data = json.loads(result.read_text())
    except (OSError, json.JSONDecodeError):
        data = None
    return (data if proc.returncode == 0 else None), proc.stdout, proc.stderr


def setup_probe(tmp: Path, i: int) -> float:
    data, _, err = run_child(tmp / f"probe{i}.json", ["--import-only"])
    if data is None:
        raise RuntimeError(f"import of holderforms.cli failed:\n{err}")
    return data["setup_s"]


def run_pass(workload, seed, tmp: Path, index: int, traced: bool,
             gate: Gate) -> dict:
    """One pass: each subcommand of the workload once, in order."""
    pdir = tmp / f"pass{index}"
    invocations, digests = [], {}
    for cmd in WORKLOADS[workload]:
        outdir = pdir / cmd
        argv = [cmd, "--seed", str(seed), "--outdir", str(outdir)]
        data, stdout, stderr = run_child(pdir / f"{cmd}.json",
                                         ["--trace"] if traced else [], argv)
        for line in stdout.splitlines():
            if line.startswith(("PASS ", "FAIL ")):
                gate.check(line.startswith("PASS "), f"{cmd}: {line}")
        if gate.check(data is not None and data.get("rc") == 0,
                      f"{cmd} failed: {stderr.strip()[-400:]}"):
            invocations.append(data)
        for name in CSVS[cmd]:
            path = outdir / name
            if gate.check(path.is_file() and path.stat().st_size > 0,
                          f"{cmd} wrote no {name}"):
                digests[f"{cmd}/{name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return {"traced": traced, "digests": digests, "invocations": invocations}


def pass_totals(p: dict) -> dict:
    inv = p["invocations"]
    return {"wall_s": sum(i["wall_s"] for i in inv),
            "cpu_s": sum(i["cpu_s"] for i in inv),
            "peak_rss_mb": max((i["peak_rss_mb"] for i in inv), default=0.0)}


def layer_values(p: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    spans, counts = {}, {}
    top_s = 0.0
    for inv in p["invocations"]:
        t = inv["trace"]
        for key, vals in t["spans"].items():
            acc = spans.setdefault(key, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += vals[i]
        for key, val in t["counts"].items():
            counts[key] = counts.get(key, 0) + val
        top_s += t["top_s"]
    values = {}
    for name, unit in PER_LAYER.items():
        span, _, field = name.rpartition(".")
        if name in counts:
            values[name] = counts[name]
        elif field == "calls":
            values[name] = spans.get(span, [0])[0]
        elif field == "self_s":
            values[name] = spans.get(span, [0, 0.0, 0.0])[2]
        else:  # a counter that this pass never touched
            values[name] = 0.0 if unit == "s" else 0
    drivers = sum(v for k, v in counts.items()
                  if k.startswith("chains.") and k.endswith("quadrature.calls"))
    values["chains.quad_steps_per_call"] = (
        counts.get("chains.gl_rules", 0) / drivers if drivers else 0.0)
    wall = pass_totals(p)["wall_s"]
    values["trace.coverage"] = top_s / wall if wall else 0.0
    values["hook_errors"] = counts.get("trace.hook_errors", 0)
    return values


def measure(workload, seed, seconds, trace, tmp: Path, gate: Gate) -> list:
    """Run passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    last = 0.0
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        if trace:
            enough = n_traced >= MIN_PASSES and n_plain >= 1
            traced = n_traced <= n_plain
        else:
            enough = len(passes) >= MIN_PASSES
            traced = False
        elapsed = time.perf_counter() - start
        if enough and elapsed + last > seconds:
            return passes
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, tmp, len(passes), traced, gate))
        last = time.perf_counter() - t0


def check_csv_repeats(passes, gate: Gate) -> None:
    """Every pass, traced or not, must write the first pass's CSV bytes."""
    first = passes[0]["digests"]
    for p in passes[1:]:
        for name, digest in first.items():
            gate.check(p["digests"].get(name) == digest,
                       f"{name} differs between passes of one seed")


def layer_report(passes, plain_wall: float, gate: Gate) -> dict:
    """Per-layer metrics: medians of times, counts checked to repeat."""
    traced = [p for p in passes if p["traced"]]
    layers = [layer_values(p) for p in traced]
    for name in EXACT_COUNTS + ("hook_errors",):
        for v in layers[1:]:
            gate.check(v[name] == layers[0][name],
                       f"{name} did not repeat: {v[name]} vs "
                       f"{layers[0][name]}")
    gate.check(layers[0]["hook_errors"] == 0,
               "a tracer hook failed to read its count")
    traced_wall = median([pass_totals(p)["wall_s"] for p in traced])
    report = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = traced_wall - plain_wall
        elif unit in ("s", "ratio", "rules/call"):
            value = median([v[name] for v in layers])
        else:
            value = layers[0][name]
        report[name] = {"value": value, "unit": unit}
    return report


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [ROOT / "pyproject.toml"]
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args, numpy_version) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "holderforms" / "cli.py").is_file():
        print(f"no holderforms sources under {SRC}", file=sys.stderr)
        return 2
    tmp = WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    gate = Gate()
    try:
        setups = [setup_probe(tmp, i) for i in range(SETUP_PROBES)]
        passes = measure(args.workload, args.seed, args.seconds, args.trace,
                         tmp, gate)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check_csv_repeats(passes, gate)

    plain = [pass_totals(p) for p in passes if not p["traced"]]
    e2e = {name: median([t[name] for t in plain])
           for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    e2e["setup_s"] = median(setups)
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    report = (layer_report(passes, e2e["wall_s"], gate) if args.trace
              else metrics)

    numpy_version = next((i["numpy"] for p in passes
                          for i in p["invocations"]), None)
    env = stamp(args, numpy_version)
    fail_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    for name, m in {**metrics, **report}.items():
        print(f"{name:45s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'fail_frac':45s} {fail_frac:>16.6f} "
          f"({gate.failed}/{gate.attempted}) over {len(passes)} passes")
    print("stamp " + json.dumps(env))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"stamp": env, "fail_frac": fail_frac,
                              "passes": [dict(pass_totals(p), traced=p["traced"])
                                         for p in passes],
                              "setup_probes_s": setups, "end_to_end": metrics,
                              "per_layer": report if args.trace else None},
                             indent=1))
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
