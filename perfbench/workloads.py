"""Seeded instance family and the benchmark's workloads.

Every instance is drawn from the probe family: weights U{1..9} under each
constraint, bin capacities U{10..20}, modular profits U{1..9}, and coverage
over n+5 elements of weight U{1..5} with each item covering 3 of them.  An
instance depends only on (workload, seed, index), so a run's inputs are a
pure function of its ``--seed``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from mkcp_kit import (
    CoverageObjective,
    FreeConstraint,
    Instance,
    ModularObjective,
    MultiKnapsackConstraint,
    PartitionMatroid,
    SolverConfig,
    UniformMatroid,
)

SIDES = ("free", "uniform", "partition")
PARTITION_CLASSES = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an instance shape, a solver config, a size.

    ``instances`` is fixed rather than derived from the time budget, so the
    quality metrics of a seed never depend on how fast the solver is.
    ``exact`` selects brute force as the reference; otherwise the
    density-greedy + FFD baseline is the reference.
    """

    name: str
    objective: str
    n_items: int
    n_constraints: int
    n_bins: int
    sides: tuple[str, ...]
    config: SolverConfig
    instances: int
    exact: bool


WORKLOADS = {
    w.name: w
    for w in (
        # Only workload with an exact reference and the full default config;
        # every block is single-bin, so pricing idles and the cost is ~2.4k
        # tiny restricted masters per instance.  Only place cap-group rows
        # and systematic sampling run.
        Workload("desk", "modular", 10, 1, 4, SIDES, SolverConfig(), 18, True),
        # Enumeration at a runnable size: 16 single-bin blocks and one
        # 4-bin block, ~190 residual LPs built from scratch per instance.
        # Kept out of BENCHMARK.json: solve times vary too much from
        # instance to instance for steady figures at an affordable size.
        Workload(
            "seeds", "modular", 20, 1, 20, ("free",),
            SolverConfig(xi=1, restarts=1), 10, False,
        ),
        # No enumeration: each ascent step is one long column generation on
        # the 4-bin block, so pricing dominates.  Kept out of BENCHMARK.json:
        # its solves take 3-9 s each, so a run holds too few of them for
        # steady figures; run it by hand for a pricing-heavy split.
        Workload(
            "ascent", "coverage", 40, 1, 20, ("free",),
            SolverConfig(xi=0, restarts=1), 3, False,
        ),
        # Tuned gamma makes every block live: a large coupled two-constraint
        # master, a heavy gradient, and association, compliance and FFD on
        # real block shares.
        Workload(
            "packing", "coverage", 30, 2, 24, ("free",),
            SolverConfig(xi=0, restarts=1, gamma=Fraction(9, 10)), 30, False,
        ),
    )
}


def make_instance(
    rng: random.Random,
    objective: str,
    n_items: int,
    n_constraints: int,
    n_bins: int,
    side: str,
) -> Instance:
    """Draw one instance of the probe family."""
    n = n_items
    constraints = []
    for _ in range(n_constraints):
        weights = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
        capacities = tuple(Fraction(rng.randint(10, 20)) for _ in range(n_bins))
        constraints.append(MultiKnapsackConstraint(weights, capacities))
    if objective == "modular":
        spec = ModularObjective(
            Fraction(0), tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
        )
    elif objective == "coverage":
        elements = [f"e{e}" for e in range(n + 5)]
        element_weights = {e: Fraction(rng.randint(1, 5)) for e in elements}
        covers = tuple(frozenset(rng.sample(elements, 3)) for _ in range(n))
        spec = CoverageObjective(element_weights, covers)
    else:
        raise ValueError(f"unknown objective family {objective!r}")
    if side == "free":
        additional = FreeConstraint(n)
    elif side == "uniform":
        additional = UniformMatroid(n, n // 4)
    elif side == "partition":
        classes = tuple(
            frozenset(range(k, n, PARTITION_CLASSES))
            for k in range(PARTITION_CLASSES)
        )
        additional = PartitionMatroid(n, classes, (1,) * PARTITION_CLASSES)
    else:
        raise ValueError(f"unknown side constraint {side!r}")
    labels = tuple(f"i{k}" for k in range(n))
    return Instance(labels, tuple(constraints), spec, additional)


def workload_instances(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instances under one seed, side constraints cycling."""
    out = []
    for k in range(workload.instances):
        rng = random.Random(f"{workload.name}/{seed}/{k}")
        side = workload.sides[k % len(workload.sides)]
        out.append(
            make_instance(
                rng,
                workload.objective,
                workload.n_items,
                workload.n_constraints,
                workload.n_bins,
                side,
            )
        )
    return out
