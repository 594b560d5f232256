"""Density-greedy with first-fit-decreasing packing: the obvious heuristic.

It is the quality reference on every workload without an exact optimum.
Each round takes the item with the best marginal gain per unit of size
(its weight as a share of each constraint's total capacity, summed) among
those that still keep the side constraint and pack by FFD into every
constraint's bins.  An item that does not fit is dropped for good.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from mkcp_kit import Instance, Solution


def ffd_assign(
    items, weights: Sequence[Fraction], capacities: Sequence[Fraction]
) -> Optional[tuple[frozenset, ...]]:
    """Place items heaviest first into the first bin with room, or None.

    Bins are tried by descending capacity, ties by index, so unequal bins
    are packed largest first.
    """
    order = sorted(range(len(capacities)), key=lambda b: (-capacities[b], b))
    loads = [Fraction(0)] * len(capacities)
    bins: list[set] = [set() for _ in capacities]
    for i in sorted(items, key=lambda i: (-weights[i], i)):
        for b in order:
            if loads[b] + weights[i] <= capacities[b]:
                loads[b] += weights[i]
                bins[b].add(i)
                break
        else:
            return None
    return tuple(frozenset(b) for b in bins)


def greedy_ffd(instance: Instance) -> Solution:
    """Density-greedy selection, every constraint packed by FFD."""
    spec = instance.objective
    totals = [sum(mkc.capacities, Fraction(0)) for mkc in instance.constraints]
    size = {
        i: sum(
            (mkc.weights[i] / total for mkc, total in zip(instance.constraints, totals)),
            Fraction(0),
        )
        for i in range(instance.n_items)
    }
    chosen: frozenset = frozenset()
    value = spec.evaluate(chosen)
    best = Solution.empty(instance)
    remaining = set(range(instance.n_items))
    while remaining:
        ranked = []
        for i in sorted(remaining):
            gain = spec.evaluate(chosen | {i}) - value
            if gain > 0:
                # zero-size items rank first, then by gain per unit of size
                key = (0, -gain) if size[i] == 0 else (1, -gain / size[i])
                ranked.append((key, i))
        if not ranked:
            break
        ranked.sort()
        for _, i in ranked:
            remaining.discard(i)
            candidate = chosen | {i}
            if not instance.additional.is_member(candidate):
                continue
            assignments = []
            for mkc in instance.constraints:
                placed = ffd_assign(candidate, mkc.weights, mkc.capacities)
                if placed is None:
                    break
                assignments.append(placed)
            else:
                chosen = candidate
                value = spec.evaluate(chosen)
                best = Solution(chosen, tuple(assignments))
                break
    return best
