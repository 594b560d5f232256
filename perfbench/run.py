"""Solve benchmark for mkcp-kit: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Builds the workload's instances from ``--seed``, solves them with
``mkcp_kit.solve`` in this process and thread, checks every solution, and
prints a summary followed by one JSON line.  With ``--trace 0`` the JSON
holds the gated end-to-end metrics and the summary lines the rest; passes
over the instance set repeat while another pass still fits in
``--seconds``.  With ``--trace 1`` it runs one untraced and one traced
pass and holds the per-layer split, the traced pass's spans being written
to ``perfbench/out/``.  See README.md beside this file for the workloads
and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from spans import LAYERS, ROOT, Tracer, call_counts, self_times, write_spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
CALIBRATION_STEPS = 20_000
# glibc mallopt parameters and the value both start at.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MALLOC_THRESHOLD = 128 * 1024

# Self-time metric of each span name, where it is not simply ``<name>_s``.
SELF_TIME_METRICS = {
    "solver.enum": "solver.enum_self_s",
    "solver.restricted": "solver.restricted_self_s",
    "rounding.ascent": "rounding.ascent_self_s",
    "lp.master": "lp.master_build_s",
}
CALL_METRICS = {
    "lp.pricing": "lp.pricing_calls",
    "lp.highs": "lp.highs_calls",
    "lp.master": "lp.instance_lp_calls",
    "solver.residual": "solver.residuals",
    "solver.restricted": "solver.restricted_runs",
    "grouping.ffd": "grouping.ffd_calls",
}
OBSERVED_COUNTS = (
    "objectives.evals",
    "solver.collapsed_runs",
    "solver.noncompliant_blocks",
    "association.iterations",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def solution_bytes(instance, solution) -> bytes:
    """The bytes ``save_solution`` would write."""
    from mkcp_kit.model import solution_to_dict

    text = json.dumps(solution_to_dict(instance, solution), indent=2) + "\n"
    return text.encode("utf-8")


def instance_digest(instances) -> str:
    from mkcp_kit.model import instance_to_dict

    digest = hashlib.sha256()
    for instance in instances:
        digest.update(json.dumps(instance_to_dict(instance), sort_keys=True).encode())
    return digest.hexdigest()


def set_up(workload, seed):
    """Instances and reference values; returns them with the reference time."""
    from mkcp_kit import brute_force_solve, validate_solution
    from baseline import greedy_ffd
    from workloads import workload_instances

    instances = workload_instances(workload, seed)
    references = []
    reference_time = 0.0
    for instance in instances:
        start = time.perf_counter()
        reference = brute_force_solve(instance) if workload.exact else greedy_ffd(instance)
        reference_time += time.perf_counter() - start
        errors = validate_solution(instance, reference)
        if errors:
            raise RuntimeError(f"reference solution is infeasible: {errors[0]}")
        value = instance.objective.evaluate(reference.selected)
        if value <= 0:
            raise RuntimeError("reference value is not positive")
        references.append(value)
    return instances, references, reference_time


def pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds at their starting values.

    glibc raises both thresholds after the first large block is freed, and
    from then on keeps freed memory in the heap; how much it keeps depends
    on where the large blocks happened to land, so ``peak_rss_mb`` of one
    seed jumped by ~38 MB steps from process to process.  Pinned, freed
    large blocks go back to the system and the peak follows the solver's
    live memory.  Returns False where there is no glibc ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return all(
        mallopt(param, MALLOC_THRESHOLD) == 1
        for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD)
    )


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of exact-rational adds.

    Run just before every solve, it samples how fast the machine is at that
    moment; ``solve_rel`` divides by it so a shared host slowing down for a
    minute does not read as a slower solver.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(CALIBRATION_STEPS):
        total += Fraction(i % 7, 1 + i % 11)
    return time.perf_counter() - start


class Solved(NamedTuple):
    seconds: float
    calibration: float
    solution: object
    error: Optional[str]


def solve_pass(instances, config, solve) -> list[Solved]:
    """Solve every instance once, timing each solve and a calibration."""
    out = []
    for instance in instances:
        calibration = calibrate()
        start = time.perf_counter()
        try:
            solution, error = solve(instance, config), None
        except Exception as exc:  # a raising solve is a counted failure
            traceback.print_exc(file=sys.stderr)
            solution, error = None, f"{type(exc).__name__}: {exc}"
        out.append(Solved(time.perf_counter() - start, calibration, solution, error))
    return out


def pass_digest(instances, results) -> str:
    digest = hashlib.sha256()
    for instance, result in zip(instances, results):
        if result.solution is None:
            digest.update(f"error: {result.error}\n".encode())
        else:
            digest.update(solution_bytes(instance, result.solution))
    return digest.hexdigest()


def check_pass(instances, references, exact, results):
    """Per-instance (ratio, empty, failed, wrong) for one pass.

    ``failed`` covers a raise, an infeasible solution, and a value above
    the brute-force optimum; ``wrong`` covers the last two only.
    """
    from mkcp_kit import validate_solution

    rows = []
    for instance, reference, result in zip(instances, references, results):
        solution = result.solution
        if solution is None:
            rows.append((0.0, False, True, False))
            continue
        if validate_solution(instance, solution):
            rows.append((0.0, False, True, True))
            continue
        value = instance.objective.evaluate(solution.selected)
        if exact and value > reference:
            rows.append((float(value / reference), False, True, True))
            continue
        rows.append((float(value / reference), not solution.selected, False, False))
    return rows


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, untraced_total) -> tuple[dict, bool]:
    """Per-layer metrics of one traced pass, and whether self times add up."""
    own = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    traced_total = sum(end - start for name, start, end, _ in tracer.spans if name == ROOT)
    metrics = {}
    for name in (ROOT, *LAYERS.values()):
        key = SELF_TIME_METRICS.get(name, f"{name}_s")
        metrics[key] = metric(own.get(name, 0.0), "s")
    for name, key in CALL_METRICS.items():
        metrics[key] = metric(calls.get(name, 0), "count")
    for key in OBSERVED_COUNTS:
        metrics[key] = metric(tracer.counts.get(key, 0), "count")
    metrics["trace.solve_s"] = metric(traced_total, "s")
    metrics["trace.overhead_s"] = metric(traced_total - untraced_total, "s")
    adds_up = abs(sum(own.values()) - traced_total) <= 1e-6 * max(traced_total, 1.0)
    return metrics, adds_up


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "mkcp_kit" / "__init__.py").is_file():
        print(f"error: no mkcp_kit sources under {SRC}", file=sys.stderr)
        return 2
    # one thread: keep native libraries from starting pools of their own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    pinned = pin_malloc_thresholds()
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    mkcp_kit = importlib.import_module("mkcp_kit")
    from workloads import WORKLOADS

    import_s = time.perf_counter() - start
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        instances, references, reference_time = set_up(workload, args.seed)
        setups.append((time.perf_counter() - start, reference_time,
                       instance_digest(instances), tuple(references)))
    if len({(digest, refs) for _, _, digest, refs in setups}) != 1:
        raise RuntimeError("instance generation is not deterministic under a seed")
    setup_s = import_s + statistics.median(s for s, _, _, _ in setups)
    reference_s = statistics.median(r for _, r, _, _ in setups)

    # Passes repeat while another one still fits; a traced run needs only
    # one untraced pass, for the overhead and the digest comparison.
    passes = []
    began = time.perf_counter()
    while True:
        results = solve_pass(instances, workload.config, mkcp_kit.solve)
        passes.append(results)
        last = sum(r.seconds for r in results)
        if args.trace or time.perf_counter() - began + last > args.seconds:
            break
    digests = {pass_digest(instances, results) for results in passes}
    rows = check_pass(instances, references, workload.exact, passes[0])
    correct = len(digests) == 1 and not any(wrong for _, _, _, wrong in rows)
    totals = [sum(r.seconds for r in results) for results in passes]
    relative = [
        sum(r.seconds for r in results) / sum(r.calibration for r in results)
        for results in passes
    ]
    times = [r.seconds for results in passes for r in results]
    ratios = [ratio for ratio, _, _, _ in rows]
    n = len(instances)
    failures = sum(failed for _, _, failed, _ in rows)
    print(f"workload {workload.name} seed {args.seed}: {n} instances, "
          f"{len(passes)} untraced passes, digest {min(digests)[:16]}, "
          f"malloc thresholds pinned: {pinned}")

    if args.trace:
        tracer = Tracer()
        with tracer.patched():
            traced = solve_pass(
                instances, workload.config, tracer.wrap(ROOT, mkcp_kit.solve)
            )
        passes.append(traced)
        metrics, adds_up = layer_metrics(tracer, totals[0])
        metrics["exact.brute_force_s"] = metric(reference_s if workload.exact else 0.0, "s")
        same = {pass_digest(instances, traced)} == digests
        correct = correct and adds_up and same
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-{args.seed}.tsv"
        write_spans(tracer.spans, spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path}")
        print(f"traced digest equal: {same}; self times add up: {adds_up}")
    else:
        metrics = {
            "solve_rel": metric(statistics.median(relative), "x"),
            "setup_s": metric(setup_s, "s"),
            "value_ratio": metric(statistics.fmean(ratios), "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        # printed only, not gated: see README.md
        print(f"solve_s {statistics.median(totals)} s")
        print(f"solve_p50_s {statistics.median(times)} s (n={len(times)})")
        print(f"value_ratio_min {min(ratios)} ratio")
        print(f"empty_frac {sum(empty for _, empty, _, _ in rows) / n} share")
        print(f"failed_frac {failures / n} share")
    for key, entry in metrics.items():
        print(f"{key} {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": n * len(passes),
        "failed": failures * len(passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
