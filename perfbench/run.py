"""One benchmark for the OpenSHMEM-over-NTB model, in both clocks.

Run from the repository root::

    python3 perfbench/run.py --workload paper-ring3 --seed 1 --seconds 25
    python3 perfbench/run.py --workload chaos-ring16 --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics: host seconds (median over passes) and the model's
virtual-time answer.  ``--trace 1`` runs untraced reference passes,
then traced passes with every layer's public entry points wrapped
(``layers.py``), and reports the per-layer split.  Every pass checks its
outputs; a run whose checks fail prints the failures, reports
``"correct": false`` with no metrics and exits 1.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOAD_NAMES = ("paper-ring3", "chaos-ring16", "chaos-ring16-traced",
                  "bisect-torus64", "ring16", "ring16-traced")
#: the seed kept out of tuning: later claims must also hold on it.  It is
#: never a default; pass it explicitly when checking a claim.
HELD_OUT_SEED = 20261017
#: tail percentiles tried, highest first; the first with at least
#: ``TAIL_BEYOND`` samples above it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: the layer table must sum to the traced wall_s within this share.
SPLIT_TOLERANCE = 0.01
#: fewest measured passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3
#: share of a traced run's ``--seconds`` spent on untraced reference
#: passes.
REFERENCE_SHARE = 0.2
#: iterations of the calibration loop: about 0.15-0.2 s on the 2-vCPU
#: Xeon the bounds were set on.
CALIBRATION_LOOP = 1_000_000
#: seconds the short calibration loop (``workloads.SETUP_CAL_LOOP``) takes
#: on that Xeon: ``setup_s`` is set-up time scaled to this host speed.
SETUP_CAL_REF_S = 0.03

#: name -> (unit, clock) of every end-to-end metric, in print order.
END_TO_END = {
    "wall_s": ("s", "host"),
    "wall_per_cal": ("ratio", "host"),
    "setup_s": ("s", "host"),
    "setup_host_s": ("s", "host"),
    "peak_mem_mb": ("MB", "host"),
    "virt_elapsed_us": ("us", "virtual"),
    "virt_put_p50_us": ("us", "virtual"),
    "virt_put_tail_us": ("us", "virtual"),
    "virt_get_p50_us": ("us", "virtual"),
    "virt_get_tail_us": ("us", "virtual"),
    "virt_barrier_p50_us": ("us", "virtual"),
    "virt_barrier_tail_us": ("us", "virtual"),
    "ops_failed_frac": ("ratio", "-"),
    "ops_ok_frac": ("ratio", "-"),
}
#: The end-to-end metrics of the JSON result (and of ``BENCHMARK.json``).
#: The rest are printed only.  The model is deterministic, so on the
#: fault-free workloads the virtual figures are the same for every seed;
#: a gate needs figures that are measured afresh.  ``ops_failed_frac`` is
#: 0 whenever nothing fails, so its complement ``ops_ok_frac`` is gated.
#: The speed of a shared host drifts by a fifth over tens of seconds, and
#: ``wall_s`` with it; ``wall_per_cal`` reads each pass against the
#: calibration loop timed around it, so that drift cancels (ROADMAP item
#: 1), and is gated in its place.
GATED = ("wall_per_cal", "setup_s", "peak_mem_mb", "ops_ok_frac")


def _bootstrap() -> None:
    """Import the model from the checkout's ``src`` or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no model sources under {src}; run "
                         "from a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def percentile_summary(samples: list) -> dict:
    """p50 and the highest tail percentile with enough samples beyond."""
    import numpy as np

    n = len(samples)
    tail = next((p for p in TAIL_PERCENTILES
                 if n * (100.0 - p) / 100.0 >= TAIL_BEYOND), None)
    return {
        "n": n,
        "p50": float(np.percentile(samples, 50)) if n else float("nan"),
        "tail_pct": tail,
        "tail": float(np.percentile(samples, tail)) if tail else float("nan"),
    }


def end_to_end(passes: list, calibrations: list,
               peak_mb: float) -> tuple[dict, dict]:
    """Metrics of a run's passes, plus the tail percentiles used.
    ``calibrations[i]`` and ``calibrations[i + 1]`` were timed just
    before and just after pass ``i``."""
    first = passes[0]
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "wall_per_cal": statistics.median(
            p.wall_s / ((before + after) / 2) for p, before, after
            in zip(passes, calibrations, calibrations[1:])),
        # Each pass's set-up seconds over the mean of the short loops
        # timed just before its set-ups.
        "setup_s": SETUP_CAL_REF_S * statistics.median(
            p.setup_s * p.setups / p.setup_cal_s for p in passes),
        "setup_host_s": statistics.median(p.setup_s for p in passes),
        "peak_mem_mb": peak_mb,
        "virt_elapsed_us": first.virt_elapsed_us,
    }
    tails = {}
    for kind in ("put", "get", "barrier"):
        summary = percentile_summary(first.samples[kind])
        values[f"virt_{kind}_p50_us"] = summary["p50"]
        values[f"virt_{kind}_tail_us"] = summary["tail"]
        tails[kind] = summary
    values["ops_failed_frac"] = first.failed / max(first.attempted, 1)
    values["ops_ok_frac"] = 1.0 - values["ops_failed_frac"]
    return values, tails


def _print_checks(passes: list, agreement: str) -> bool:
    """Print the first pass's output checks, then whether every pass
    (same seed) repeated its virtual figures and registry counts."""
    ok = True
    for description, passed in passes[0].checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {description}")
        ok = ok and passed
    correct = all(ps.correct for ps in passes)
    same = all(ps.fingerprint() == passes[0].fingerprint() for ps in passes)
    print(f"  [{'PASS' if correct else 'FAIL'}] every pass passed its "
          "output checks")
    print(f"  [{'PASS' if same else 'FAIL'}] {agreement}")
    return ok and correct and same


def _fail(passes: list) -> None:
    print("perfbench: output checks failed; no metrics reported")
    print(json.dumps({"correct": False,
                      "attempted": sum(p.attempted for p in passes),
                      "failed": sum(p.failed for p in passes),
                      "metrics": {}}))
    sys.exit(1)


def measure(workload: str, seed: int,
            seconds: float) -> tuple[list, list, float]:
    """Untraced passes until ``seconds`` of measuring are used up, with
    the calibration loop timed before the first pass and after each.
    Also returns the peak memory (MB) after the first pass."""
    from workloads import calibrate, run_pass

    passes: list = []
    calibrations = [calibrate(CALIBRATION_LOOP)]
    peak_mb = 0.0
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed))
        # Free the pass's clusters now, so that later passes reuse the
        # memory.
        gc.collect()
        if len(passes) == 1:
            # Later passes can only raise the high-water mark, by however
            # much freed memory the allocator kept; one pass's peak does
            # not depend on how many passes fit in ``seconds``.
            peak_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibrations.append(calibrate(CALIBRATION_LOOP))
        used = time.perf_counter() - start
        per_pass = used / len(passes)
        if len(passes) >= MIN_PASSES and used + per_pass > seconds:
            return passes, calibrations, peak_mb


def run_untraced(args) -> None:
    passes, calibrations, peak_mb = measure(args.workload, args.seed,
                                            args.seconds)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes,"
          f" calibration_s {statistics.median(calibrations):.4f} (fixed "
          "loop, same process, timed around every pass)")
    if not _print_checks(passes, f"all {len(passes)} passes repeated the "
                         "virtual figures and registry counts exactly"):
        _fail(passes)
    values, tails = end_to_end(passes, calibrations, peak_mb)
    print(f"  {'metric':<22}{'value':>16}  {'unit':<6}clock")
    for name, (unit, clock) in END_TO_END.items():
        note = ""
        kind = name.split("_")[1] if name.endswith("_tail_us") else None
        if kind:
            t = tails[kind]
            note = (f"  p{t['tail_pct']:g} of n={t['n']} "
                    f"({t['n'] * (100 - t['tail_pct']) / 100:.0f} beyond)")
        print(f"  {name:<22}{values[name]:>16.6g}  {unit:<6}{clock}{note}")
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
               for name in GATED}
    print(json.dumps({"correct": True,
                      "attempted": sum(p.attempted for p in passes),
                      "failed": sum(p.failed for p in passes),
                      "metrics": metrics}))


def run_traced(args) -> None:
    from traced import VIRTUAL, layer_metrics, render_layer_table, traced_pass
    from workloads import calibrate, run_pass

    calibration = calibrate(CALIBRATION_LOOP)
    start = time.perf_counter()
    # Untraced reference passes for a share of the run (at least one);
    # the one of median wall_s is the base of trace.overhead_ratio and
    # sim.events_per_s.  A single pass, the process's first, reads slow.
    reference = []
    while (not reference or time.perf_counter() - start
           < REFERENCE_SHARE * args.seconds):
        reference.append(run_pass(args.workload, args.seed))
        gc.collect()
    traced_start = time.perf_counter()
    traced = []
    while True:
        traced.append(traced_pass(args.workload, args.seed))
        gc.collect()
        now = time.perf_counter()
        if now - start + (now - traced_start) / len(traced) > args.seconds:
            break
    print(f"workload {args.workload} seed {args.seed} traced: "
          f"{len(traced)} traced passes, calibration_s {calibration:.4f}")
    ok = _print_checks(reference + [t.ps for t in traced],
                       "traced passes gave the untraced pass's virtual "
                       "figures and registry counts exactly")
    chosen = sorted(traced, key=lambda t: t.ps.wall_s)[len(traced) // 2]
    base = sorted(reference, key=lambda p: p.wall_s)[len(reference) // 2]
    metrics, residual = layer_metrics(chosen, base)
    within = abs(residual) <= SPLIT_TOLERANCE
    print(f"  [{'PASS' if within else 'FAIL'}] layer self times sum to the "
          f"traced wall_s within {SPLIT_TOLERANCE:.0%} "
          f"(residual {residual:+.2e})")
    if not (ok and within):
        _fail([t.ps for t in traced])
    print(render_layer_table(chosen, metrics))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    # One file per workload (the latest run's), so traced runs over many
    # seeds do not pile up tens of MB each.
    path = out / f"{args.workload}.spans.npz"
    chosen.tracer.dump(path)
    print(f"  {chosen.tracer.spans()} spans written to "
          f"{path.relative_to(ROOT)}")
    print(json.dumps({"correct": True,
                      "attempted": sum(t.ps.attempted for t in traced),
                      "failed": sum(t.ps.failed for t in traced),
                      "metrics": {name: entry for name, entry in metrics.items()
                                  if name not in VIRTUAL}}))


def run_all(args) -> None:
    """Every workload in its own child process, so that each peak
    memory figure is that workload's alone."""
    results = {}
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        results[workload] = (json.loads(lines[-1])
                             if child.returncode == 0 and lines else None)
    correct = all(r is not None for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}/{name}": m for w, r in results.items() if r
                    for name, m in r["metrics"].items()},
    }))
    if not correct:
        sys.exit(1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # numpy asks the kernel for transparent huge pages on large arrays.
    # Whether it gets them depends on address alignment, which moved the
    # peak memory of identical runs by up to 40%; ordinary pages make
    # peak_mem_mb repeat.  This must precede the first numpy import.
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    _bootstrap()
    if args.workload == "all":
        run_all(args)
    elif args.trace:
        run_traced(args)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
