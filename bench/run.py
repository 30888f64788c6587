"""The cubiquity benchmark: a closed loop with one client.

    python3 bench/run.py --workload scan --seed 1 --seconds 16 --trace 0

Feeds seeded, generated matrix text to ``cubiquity.cli.run(argv)`` in
process (or to ``python -m cubiquity.cli`` subprocesses for ``cold_cli``),
one call at a time, in whole passes over the workload's inputs until
``--seconds`` have passed.  Every answer is checked by ``verify.py``
outside the timed region.  Every time is scaled to a fixed machine speed
by ``calibrate.py``.  With ``--trace 1`` it instead reports per-layer
numbers from spans recorded by ``spans.py``.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import calibrate
import oracle
import verify
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 7
PROBE_REPS = 5
LADDER = (50, 75, 80, 90, 95, 98, 99, 99.5, 99.9)
ROUTES = ("det_gate", "hajos", "bruteforce", "cap_refused")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(inputs_per_pass: int) -> float:
    """Highest ladder percentile that leaves at least ten of one pass's
    inputs beyond it.  Chosen from the pass size, not the sample count,
    so the percentile does not move with the number of passes."""
    fits = [p for p in LADDER if inputs_per_pass * (100 - p) / 100 >= 10]
    return max(fits) if fits else LADDER[0]


def import_cli():
    """Import ``cubiquity.cli`` afresh from this checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "cubiquity" or m.startswith("cubiquity.")]:
        del sys.modules[name]
    cli = importlib.import_module("cubiquity.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cubiquity imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def setup(cases):
    """Median over several rounds of importing the CLI and rendering the
    inputs as argv text, each scaled by the calibration chunks on either
    side of it.  Returns (seconds, argv list)."""
    times = []
    before = calibrate.chunk()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        import_cli()
        argvs = [case.argv() for case in cases]
        t1 = time.perf_counter()
        after = calibrate.chunk()
        times.append((t1 - t0) * calibrate.scales([before, after])[0])
        before = after
    return statistics.median(times), argvs


def in_process(argv):
    """One call of the CLI's public entry point, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli = sys.modules["cubiquity.cli"]
        t0 = time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a crash is a failed operation
            code, out = None, io.StringIO(repr(exc))
        t1 = time.perf_counter()
    return t1 - t0, code, out.getvalue()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def subprocess_call(argv):
    """One ``python -m cubiquity.cli`` process, start to exit."""
    cmd = [sys.executable, "-m", "cubiquity.cli", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:  # killed and reaped: a failed call
        return time.perf_counter() - t0, None, "timed out"
    t1 = time.perf_counter()
    return t1 - t0, proc.returncode, proc.stdout


def one_pass(call, argvs, calibrated=False):
    """Every input once, in order; a sample is (input index, latency,
    exit code, stdout, speed scale).  When `calibrated`, a calibration
    chunk runs before each call and after the last, and sets the scale;
    otherwise the scale is 1."""
    samples, chunks = [], []
    for i, argv in enumerate(argvs):
        if calibrated:
            chunks.append(calibrate.chunk())
        dt, code, out = call(argv)
        samples.append((i, dt, code, out))
    if not calibrated:
        return [s + (1.0,) for s in samples]
    chunks.append(calibrate.chunk())
    return [s + (k,) for s, k in zip(samples, calibrate.scales(chunks))]


def measure(call, argvs, seconds):
    """Whole calibrated passes over the inputs until `seconds` have
    passed.  Returns (passes, samples)."""
    samples = []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        samples += one_pass(call, argvs, calibrated=True)
        passes += 1
    return passes, samples


def check_samples(cases, samples):
    """Verify every answer; identical answers are checked once.
    Returns one Outcome per sample."""
    memo = {}
    outcomes = []
    for i, _, code, out, _ in samples:
        key = (i, code, out)
        if key not in memo:
            memo[key] = verify.verify(cases[i], code, out)
        outcomes.append(memo[key])
    return outcomes


def report_failures(cases, samples, outcomes):
    for (i, _, code, _, _), outcome in zip(samples, outcomes):
        if not outcome.ok:
            print(f"# FAILED {cases[i].label} {cases[i].command} exit {code}: "
                  f"{outcome.reason}", file=sys.stderr)


def per_input_medians(samples, inputs, scaled=True):
    """Each input's median latency over the passes, in ms, ascending:
    scaled to the calibration's machine speed, or as timed.  A pass runs
    every input once, so these medians are one typical pass."""
    by_input = [[] for _ in range(inputs)]
    for i, dt, _, _, scale in samples:
        by_input[i].append(dt * 1000 * (scale if scaled else 1.0))
    return sorted(statistics.median(v) for v in by_input)


def end_to_end(workload, cases, argvs, seconds, setup_s):
    call = subprocess_call if workload == "cold_cli" else in_process
    passes, samples = measure(call, argvs, seconds)
    outcomes = check_samples(cases, samples)
    report_failures(cases, samples, outcomes)
    n = len(samples)
    failed = sum(not o.ok for o in outcomes)
    lat = per_input_medians(samples, len(argvs))
    raw = per_input_medians(samples, len(argvs), scaled=False)
    p = tail_percentile(len(argvs))
    beyond = sum(1 for x in lat if x > percentile(lat, p))
    speed = statistics.median(s[4] for s in samples)
    who = (resource.RUSAGE_CHILDREN if workload == "cold_cli"
           else resource.RUSAGE_SELF)
    print(f"# {workload}: {n} operations in {passes} passes over "
          f"{len(argvs)} inputs; latency_tail_ms is p{p} of the per-input "
          f"medians, with {beyond} inputs ({beyond * passes} samples) "
          f"beyond it")
    print(f"# as timed, before scaling by the machine's speed (median "
          f"scale {speed:.3f}): ops_per_s {len(raw) / (sum(raw) / 1000):.4f}, "
          f"latency_p50_ms {percentile(raw, 50):.4f}, latency_tail_ms "
          f"{percentile(raw, p):.4f}")
    metrics = {
        "ops_per_s": (len(lat) / (sum(lat) / 1000), "1/s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_tail_ms": (percentile(lat, p), "ms"),
        "ok_frac": (1 - failed / n, "ratio"),
        "inconclusive_frac": (sum(o.inconclusive for o in outcomes) / n,
                              "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return n, failed, metrics


def probe_interpreter():
    """Medians of a bare interpreter start and of one that imports the
    CLI, in fresh processes, alternated.  Returns (interp_ms, import_ms)."""
    bare, full = [], []
    for _ in range(PROBE_REPS):
        for code, into in (("pass", bare), ("import cubiquity.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           env=child_env(), check=True)
            into.append((time.perf_counter() - t0) * 1000)
    interp = statistics.median(bare)
    return interp, statistics.median(full) - interp


def derived_counts(tracer, passes):
    """Work counts of the Hajos search and the brute-force oracle, derived
    from their inputs and outputs, per pass."""
    orders = found = 0
    for args, kwargs, result, exc in tracer.observed["obstructions.hajos"]:
        basis = args[0]
        if exc is not None:
            continue                      # refused by the cap
        if result is not None:
            found += 1
            orders += oracle.permutation_rank(result.row_order)
        elif abs(basis.det) == 2 ** basis.n:
            orders += factorial(basis.n)
    calls = cosets = vertices = full = 0
    for args, kwargs, result, exc in \
            tracer.observed["obstructions.bruteforce"]:
        calls += 1
        if exc is not None:
            continue
        rows = [list(r) for r in args[0].rows]
        lat = oracle.Lattice(rows)
        scanned = (lat.index if result.witness is None
                   else lat.box_position(result.witness))
        cosets += scanned
        vertices += scanned * 2 ** lat.n
        full += scanned == lat.index
    return {
        "obstructions.hajos.orders_tried": (orders / passes, "count"),
        "obstructions.hajos.hit_ratio": (found / orders if orders else 0.0,
                                         "ratio"),
        "obstructions.bruteforce.cosets_scanned": (cosets / passes, "count"),
        "obstructions.bruteforce.vertex_bound": (vertices / passes, "count"),
        "obstructions.bruteforce.full_scan_frac": (full / calls if calls
                                                   else 0.0, "ratio"),
    }


LAYER_TIMES = ("cli.run", "formats.parse", "lattice.basis", "lattice.hnf",
               "subsets.stats", "subsets.predicates", "obstructions.det_gate",
               "obstructions.hajos", "obstructions.bruteforce",
               "obstructions.wu", "transforms.reduce", "classify.classify",
               "classify.decompose", "classify.det4")
LAYER_CALLS = ("formats.parse", "lattice.basis", "lattice.hnf",
               "obstructions.hajos", "obstructions.bruteforce")


def per_layer(workload, seed, cases, argvs, seconds):
    interp_ms, import_ms = probe_interpreter()
    tracer = Tracer()

    def traced(argv):
        tracer.begin_op()
        return in_process(argv)

    # untraced and traced passes alternate, so drift in machine speed
    # reaches both sides of the overhead ratio alike
    samples_u, samples_t = [], []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        samples_u += one_pass(in_process, argvs)
        tracer.install()
        try:
            samples_t += one_pass(traced, argvs)
        finally:
            tracer.uninstall()
        passes += 1
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload}-{seed}")

    samples = samples_u + samples_t
    outcomes = check_samples(cases, samples)
    report_failures(cases, samples, outcomes)
    first_pass = outcomes[len(samples_u):len(samples_u) + len(argvs)]
    routes = {r: 0 for r in ROUTES}
    for o in first_pass:
        if o.route in routes:
            routes[o.route] += 1
    steps = sum(len(out.splitlines()) - 1
                for i, _, _, out, _ in samples_t[:len(argvs)]
                if cases[i].command == "reduce")

    totals = tracer.layer_totals()
    metrics = {"cli.interp_ms": (interp_ms, "ms"),
               "cli.import_ms": (import_ms, "ms")}
    for group in LAYER_TIMES:
        metrics[f"{group}.self_ms"] = (
            totals[group]["self_s"] * 1000 / passes, "ms")
    for group in LAYER_CALLS:
        metrics[f"{group}.calls"] = (totals[group]["calls"] / passes,
                                     "count")
    metrics.update(derived_counts(tracer, passes))
    metrics["transforms.reduce.steps"] = (steps, "count")
    for r in ROUTES:
        metrics[f"route.{r}"] = (routes[r], "count")
    untraced = sum(per_input_medians(samples_u, len(argvs)))
    metrics["trace.overhead_frac"] = (
        untraced / sum(per_input_medians(samples_t, len(argvs))), "ratio")
    return len(samples), sum(not o.ok for o in outcomes), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import_cli()
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 1
    cases = workloads.plan(args.workload, args.seed)
    setup_s, argvs = setup(cases)
    if args.trace:
        attempted, failed, metrics = per_layer(
            args.workload, args.seed, cases, argvs, args.seconds)
    else:
        attempted, failed, metrics = end_to_end(
            args.workload, cases, argvs, args.seconds, setup_s)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
