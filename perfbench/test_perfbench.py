"""Tests of the benchmark's own parts: generators, baseline, tracing.

    python3 -m pytest perfbench -q
"""
import importlib
import random
from fractions import Fraction

import pytest

from baseline import ffd_assign, greedy_ffd
from mkcp_kit import SolverConfig, brute_force_solve, solve, validate_solution
from mkcp_kit.model import instance_to_dict
from run import layer_metrics, pass_digest, solve_pass
from spans import LAYERS, OBJECTIVE_CLASSES, ROOT, Tracer, self_times
from workloads import WORKLOADS, make_instance, workload_instances


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_under_a_seed(name):
    workload = WORKLOADS[name]
    first = [instance_to_dict(i) for i in workload_instances(workload, 3)]
    again = [instance_to_dict(i) for i in workload_instances(workload, 3)]
    other = [instance_to_dict(i) for i in workload_instances(workload, 4)]
    assert first == again
    assert first != other
    assert len(first) == workload.instances


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_baseline_is_valid(name):
    workload = WORKLOADS[name]
    for instance in workload_instances(workload, 0):
        reference = greedy_ffd(instance)
        assert validate_solution(instance, reference) == []
        value = instance.objective.evaluate(reference.selected)
        assert value > 0
        if workload.exact:
            optimum = brute_force_solve(instance)
            assert value <= instance.objective.evaluate(optimum.selected)


def test_ffd_assign_fills_large_bins_first_and_reports_overflow():
    weights = [Fraction(w) for w in (5, 4, 3, 3)]
    capacities = [Fraction(6), Fraction(9)]
    assert ffd_assign(range(4), weights, capacities) == (
        frozenset({2, 3}),
        frozenset({0, 1}),
    )
    assert ffd_assign([0, 1], weights, [Fraction(4), Fraction(9)]) == (
        frozenset(),
        frozenset({0, 1}),
    )
    assert ffd_assign([0, 1], weights, [Fraction(4)]) is None


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 11.0, 12.0, -1),
    ]
    own = self_times(spans)
    assert own == {"root": 3.0, "a": 3.0, "c": 1.0, "b": 4.0}
    assert sum(own.values()) == 11.0


def test_tracer_nests_spans():
    tracer = Tracer()
    inner = lambda: tracer.call("inner", lambda: 7)
    assert tracer.call("outer", inner) == 7
    (outer_name, o0, o1, o_parent), (inner_name, i0, i1, i_parent) = tracer.spans
    assert (outer_name, o_parent, inner_name, i_parent) == ("outer", -1, "inner", 0)
    assert o0 <= i0 <= i1 <= o1


def _current_names():
    names = {}
    for module_name, attr in LAYERS:
        names[module_name, attr] = getattr(importlib.import_module(module_name), attr)
    objectives = importlib.import_module("mkcp_kit.objectives")
    for class_name in OBJECTIVE_CLASSES:
        cls = getattr(objectives, class_name)
        names[class_name, "evaluate"] = cls.__dict__["evaluate"]
    return names


def test_patched_restores_every_wrapped_name():
    before = _current_names()
    tracer = Tracer()
    with tracer.patched():
        during = _current_names()
        assert all(during[key] is not before[key] for key in before)
    assert _current_names() == before
    with pytest.raises(RuntimeError):
        with tracer.patched():
            raise RuntimeError("boom")
    assert _current_names() == before


def _tiny_instances():
    rng = random.Random(5)
    return [
        make_instance(rng, "modular", 6, 1, 4, "uniform"),
        make_instance(rng, "coverage", 8, 1, 20, "free"),
        make_instance(rng, "coverage", 6, 2, 20, "free"),
    ]


def test_traced_and_untraced_digests_are_equal_and_self_times_add_up():
    instances = _tiny_instances()
    config = SolverConfig(xi=1, restarts=1, steps=2, samples=4, gamma=Fraction(9, 10))
    untraced = solve_pass(instances, config, solve)
    tracer = Tracer()
    with tracer.patched():
        traced = solve_pass(instances, config, tracer.wrap(ROOT, solve))
    assert all(r.error is None for r in untraced + traced)
    assert pass_digest(instances, traced) == pass_digest(instances, untraced)
    metrics, adds_up = layer_metrics(tracer, sum(r.seconds for r in untraced))
    assert adds_up
    assert metrics["solver.restricted_runs"]["value"] > 0
    assert metrics["lp.highs_calls"]["value"] > 0
    assert metrics["objectives.evals"]["value"] > 0
