"""Exact solver, matching fast path, and monolog-optimality certificates,
all cross-checked against exhaustive oracles on small instances."""

import dataclasses
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanplan as sp

from conftest import (
    A1,
    B1,
    build_quiet,
    ghc_subset_oracle,
    random_fraction,
    random_graph,
    random_objective,
    rational_graph,
    rescaled,
)


def test_wrong_flow_value_raises_invariant_violation(double_star, monkeypatch):
    # a flow engine whose value disagrees with its cut must not go unnoticed,
    # even under python -O
    for engine in ("scipy", "dinic"):
        real = getattr(sp.solver, f"_min_cut_reachable_{engine}")

        def off_by_one(*args, real=real):
            value, reach = real(*args)
            return value + 1, reach

        monkeypatch.setattr(sp.solver, f"_min_cut_reachable_{engine}", off_by_one)
    for engine in ("scipy", "dinic"):
        with pytest.raises(sp.InvariantViolation):
            sp.solve(double_star, sp.Objective.p2(), engine=engine)
    with pytest.raises(sp.InvariantViolation):
        sp.check_ghc(double_star, sp.Objective.p2(), 1)
    # a failed cut is not remembered: with the real engines back, the same
    # graph solves and certifies
    monkeypatch.undo()
    for engine in ("scipy", "dinic"):
        assert sp.solve(double_star, sp.Objective.p2(), engine=engine).optimal_cost == 2
    assert not sp.check_ghc(double_star, sp.Objective.p2(), 1).holds


INVARIANT_UNDER_O = """
import scanplan as sp
from scanplan import solver

for engine in ("scipy", "dinic"):
    name = f"_min_cut_reachable_{engine}"

    def off_by_one(*args, real=getattr(solver, name)):
        value, reach = real(*args)
        return value + 1, reach

    setattr(solver, name, off_by_one)
    g = sp.build_graph([1, 1], [1, 1], [(0, 0), (1, 1)])
    try:
        solver.solve(g, sp.Objective.p2(), engine=engine)
    except sp.InvariantViolation:
        continue
    raise SystemExit(f"solve accepted a wrong {engine} flow value under python -O")
"""


def test_invariant_violation_survives_python_O():
    # invariants are explicit raises, not asserts, so -O must not strip them
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_UNDER_O], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def complete_bipartite(m, n, weight=1):
    return sp.build_graph(
        [weight] * m, [weight] * n, [(i, j) for i in range(m) for j in range(n)]
    )


def k_regular_bipartite(n, k, rng, weight=1):
    """Simple k-regular bipartite graph from k cyclic shifts of one
    random permutation (shifts guarantee no duplicate pairs)."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(i, (perm[i] + shift) % n) for shift in range(k) for i in range(n)]
    return sp.build_graph([weight] * n, [weight] * n, edges)


# -- solve -------------------------------------------------------------------


def test_double_star_p2(double_star):
    res = sp.solve(double_star, sp.Objective.p2())
    assert res.optimal_cost == 2
    assert res.policy.ones == frozenset({A1, B1})
    assert res.method == "flow_cut"
    assert res.certificate == res.optimal_cost
    assert sp.is_admissible(double_star, res.policy)


def test_single_edge_picks_cheaper_endpoint(single_edge):
    res = sp.solve(single_edge, sp.Objective.p2())
    assert res.optimal_cost == 3
    assert res.policy.ones == frozenset({sp.VertexId(2, 0)})


def test_solve_matches_brute_force_all_objectives():
    rng = random.Random(97)
    for _ in range(60):
        g = random_graph(rng, max_side=6, rational_costs=True)
        for obj in (
            sp.Objective.p1(random_fraction(rng), random_fraction(rng)),
            sp.Objective.p2(),
            sp.Objective.p3(random_fraction(rng), random_fraction(rng), random_fraction(rng)),
        ):
            fast = sp.solve(g, obj)
            slow = sp.solve_brute_force(g, obj)
            assert fast.optimal_cost == slow.optimal_cost
            assert sp.is_admissible(g, fast.policy)
            assert sp.objective_cost(g, fast.policy, obj) == fast.optimal_cost
            assert fast.certificate == fast.optimal_cost


def test_engines_agree_exactly():
    rng = random.Random(101)
    for _ in range(25):
        g = random_graph(rng, rational_costs=True)
        obj = random_objective(rng)
        a = sp.solve(g, obj, engine="scipy")
        b = sp.solve(g, obj, engine="dinic")
        assert a.optimal_cost == b.optimal_cost
        assert a.policy == b.policy  # the source-minimal cut is unique


def test_big_weights_fall_back_to_exact_engine():
    g = sp.build_graph([2**40, 1], [1, 2**40], [(0, 0), (1, 1)])
    res = sp.solve(g, sp.Objective.p2())
    assert res.engine == "dinic"
    assert res.optimal_cost == 2
    assert res.policy.ones == frozenset({sp.VertexId(1, 1), sp.VertexId(2, 0)})
    # the compiled engine cannot hold these capacities; forcing it must fail
    # loudly rather than overflow silently
    with pytest.raises(sp.ValidationError):
        sp.solve(g, sp.Objective.p2(), engine="scipy")


@pytest.fixture
def dinic_phase_calls(monkeypatch):
    """Counts the exact engine's Dinic phases, one per blocking flow."""
    calls = []
    real = sp.solver._blocking_flow

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sp.solver, "_blocking_flow", counted)
    return calls


@pytest.mark.parametrize(
    "sides, edges",
    [
        # the greedy pass pushes u0 -> v0 first, which blocks u0 -> v1 and
        # u1 -> v0: its flow is 1 and the maximum is 2
        pytest.param(2, [(0, 0), (0, 1), (1, 0)], id="one-backward-edge"),
        # the greedy flow u0 -> v0, u1 -> v1 is 2 and the maximum is 3,
        # along u2 -> v0 -> u0 -> v1 -> u1 -> v2 with two backward edges
        pytest.param(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)], id="two-backward-edges"),
    ],
)
def test_exact_engine_finishes_a_greedy_flow_that_is_not_maximum(dinic_phase_calls, sides, edges):
    g = sp.build_graph([1] * sides, [1] * sides, edges)
    obj = sp.Objective.p2()
    res = sp.solve(g, obj, engine="dinic")
    assert dinic_phase_calls == [1]
    assert res.optimal_cost == sides and res.certificate == res.optimal_cost
    assert res.engine == "dinic"
    compiled = sp.solve(g, obj, engine="scipy")
    oracle = sp.solve_brute_force(g, obj)
    assert (res.policy, res.optimal_cost) == (compiled.policy, compiled.optimal_cost)
    assert (res.policy, res.optimal_cost) == (oracle.policy, oracle.optimal_cost)


def test_exact_engine_agrees_with_scipy_on_both_paths(dinic_phase_calls):
    # small random graphs: some cuts come straight from the greedy flow,
    # others need the Dinic phases; both give scipy's cut
    rng = random.Random(211)
    greedy_only = 0
    for _ in range(150):
        g = random_graph(rng, max_side=6, rational_costs=True)
        obj = random_objective(rng)
        before = len(dinic_phase_calls)
        exact = sp.solve(g, obj, engine="dinic")
        greedy_only += len(dinic_phase_calls) == before
        compiled = sp.solve(g, obj, engine="scipy")
        assert (exact.policy, exact.optimal_cost) == (compiled.policy, compiled.optimal_cost)
        assert exact.certificate == compiled.certificate
    assert 0 < greedy_only < 150


EXACT_ENGINE_IMPORTS = """
import sys
import scanplan as sp

g = sp.build_graph([2**40, 1, 3], [1, 2**40], [(0, 0), (1, 1), (2, 0), (2, 1)])
obj = sp.Objective.p2()
assert sp.solve(g, obj).engine == "dinic"
sp.check_ghc(g, obj, 1)
sp.run_rendezvous(g, sp.RendezvousConfig(objective=obj))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_exact_engine_session_imports_no_scipy():
    # importing scipy.sparse costs tens of MB of resident memory, and a
    # session on the exact engine has no use for it
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", EXACT_ENGINE_IMPORTS], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_scaling_leaves_cover_unchanged():
    # c times every scan size, inertia price and edge cost is c times every
    # P1, P2 and P3 weight: the same cut at c times the cost. The larger c
    # push the integer columns past the int64 bound, so both dtypes occur.
    rng = random.Random(103)
    dtypes = set()
    for _ in range(30):
        g = rational_graph(rng, rng.randint(1, 6), rng.randint(1, 6))
        c = Fraction(rng.randint(1, 9) * 2 ** rng.choice((0, 20, 45, 48, 61, 100)), rng.randint(1, 9))
        scaled_g = rescaled(g, c)
        dtypes.add(scaled_g.costs.dtype)
        a1, a2, omega = (random_fraction(rng) for _ in range(3))
        for obj in (sp.Objective.p1(a1, a2), sp.Objective.p2(), sp.Objective.p3(a1, a2, omega)):
            base, scaled = sp.solve(g, obj), sp.solve(scaled_g, obj)
            assert scaled.policy.ones == base.policy.ones
            assert scaled.optimal_cost == scaled.certificate == c * base.optimal_cost
            assert sp.objective_cost(scaled_g, base.policy, obj) == c * sp.objective_cost(g, base.policy, obj)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def side_swapped(g):
    """``g`` with its two sides traded: scan sizes, inertia prices and edge ends."""
    v1, v2 = ([(v.vid.index, v.scan_size, v.inertia) for v in vs] for vs in (g.v1, g.v2))
    return sp.ExchangeGraph.from_vertices(v2, v1, [(e.v.index, e.u.index, e.cost) for e in g.edges])


def optimal_labelings(g, obj):
    """How many labelings of ``g`` are vertex covers of the optimal cost,
    by enumerating all of them."""
    vids = g.vertex_ids
    weight = [sp.effective_weight(g, vid, obj) for vid in vids]
    scale = math.lcm(*(w.denominator for w in weight))
    ints = [w.numerator * (scale // w.denominator) for w in weight]
    assert max(ints) * len(ints) < 2**62  # every cost below fits int64
    pos = {vid: k for k, vid in enumerate(vids)}
    us, vs = ([pos[vid] for vid in ends] for ends in zip(*((e.u, e.v) for e in g.edges)))
    labels = (np.arange(1 << len(vids))[:, None] >> np.arange(len(vids)) & 1).astype(bool)
    cost = labels[(labels[:, us] | labels[:, vs]).all(1)] @ np.array(ints, dtype=np.int64)
    return int((cost == cost.min()).sum())


def test_side_swap_mirrors_cost_certificates_and_unique_policies():
    # trading the sides, with alpha1 for alpha2, keeps every cost under P1,
    # P2 and P3: the optimum, and each monolog's certificate as the other
    # side's. The optimal policy mirrors where the optimum is unique
    rng = random.Random(107)
    unique, verdicts = 0, set()
    for k in range(30):
        g = random_graph(rng, max_side=6) if k % 2 else rational_graph(rng, rng.randint(1, 6), rng.randint(1, 6))
        h = side_swapped(g)
        a1, a2, omega = (random_fraction(rng) for _ in range(3))
        for obj, swapped in (
            (sp.Objective.p1(a1, a2), sp.Objective.p1(a2, a1)),
            (sp.Objective.p2(), sp.Objective.p2()),
            (sp.Objective.p3(a1, a2, omega), sp.Objective.p3(a2, a1, omega)),
        ):
            base, mirror = sp.solve(g, obj), sp.solve(h, swapped)
            assert mirror.optimal_cost == base.optimal_cost
            for side in (1, 2):
                cert, other = sp.check_ghc(h, swapped, side), sp.check_ghc(g, obj, 3 - side)
                assert (cert.holds, cert.monolog_cost) == (other.holds, other.monolog_cost)
                verdicts.add(cert.holds)
            if optimal_labelings(g, obj) == 1:
                unique += 1
                assert mirror.policy.ones == {sp.VertexId(3 - v.side, v.index) for v in base.policy.ones}
    assert verdicts == {True, False} and unique > 30
def test_empty_graph_solves_to_nothing():
    g = sp.build_graph([], [], [])
    res = sp.solve(g, sp.Objective.p2())
    assert res.optimal_cost == 0 and res.policy.ones == frozenset()


def test_fast_paths_solve_an_edgeless_graph_to_nothing():
    g = sp.build_graph([], [], [])
    for result, method in ((sp.solve_uniform_matching(g), "matching"), (sp.p1_closed_form(g, 2, 3), "closed_form")):
        assert result.policy == sp.Policy((), ())
        assert result.optimal_cost == result.certificate == 0
        assert result.method == method
    # the matching path returns its (empty) matched pairs here too
    assert sp.solve_uniform_matching(g).matching == ()


def test_unknown_engine_rejected_on_empty_graph():
    # every vertex is isolated, so loading prunes them all and no cut runs
    text = '{"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], "edges": []}'
    with pytest.warns(UserWarning, match="pruned"):
        g = sp.loads_graph(text)
    assert g.num_edges == 0
    with pytest.raises(sp.ValidationError, match="unknown flow engine 'bogus'"):
        sp.solve(g, sp.Objective.p2(), engine="bogus")
    assert sp.solve(g, sp.Objective.p2()).engine == "none"


@pytest.mark.parametrize("bad", ["p2", None, "p" * 1000])
def test_non_objective_is_refused_with_a_validation_error(double_star, bad):
    calls = [
        lambda: sp.solve(double_star, bad),
        lambda: sp.check_ghc(double_star, bad, 1),
        lambda: sp.objective_cost(double_star, sp.monolog(double_star, 1), bad),
        lambda: sp.effective_weight(double_star, A1, bad),
        lambda: sp.solve_brute_force(double_star, bad),
    ]
    for call in calls:
        with pytest.raises(sp.ValidationError, match="^expected an Objective, got ") as refused:
            call()
        assert len(str(refused.value)) < 300
    assert double_star._covers == {}


@pytest.mark.parametrize("bad", [None, "graph", [1] * 1000])
def test_non_graph_is_refused_with_a_validation_error(bad):
    p2, nothing, cfg = sp.Objective.p2(), sp.Policy([], []), sp.RendezvousConfig()
    calls = [
        lambda g: sp.solve(g, p2),
        lambda g: sp.check_ghc(g, p2, 1),
        lambda g: sp.objective_cost(g, nothing, p2),
        lambda g: sp.comm_cost(g, nothing),
        lambda g: sp.graph.effective_weight(g, sp.VertexId(1, 0), p2),
        lambda g: sp.graph.weight_numerators(g, p2),
        lambda g: sp.monolog(g, 1),
        sp.full_bidirectional,
        lambda g: sp.is_admissible(g, nothing),
        lambda g: sp.workloads(g, nothing),
        lambda g: sp.execute_order(g, nothing),
        lambda g: sp.run_rendezvous(g, cfg),
        lambda g: sp.compare_strategies(g, cfg),
        lambda g: sp.check_hall_uniform(g, 1),
        sp.solve_uniform_matching,
        lambda g: sp.solve_brute_force(g, p2),
        sp.p1_closed_form,
        sp.dumps_graph,
    ]
    for call in calls:
        with pytest.raises(sp.ValidationError, match="^expected an ExchangeGraph, got ") as refused:
            call(bad)
        assert len(str(refused.value)) < 300


# -- one min cut per graph and objective ---------------------------------------


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts the calls into each flow engine."""
    calls = {"scipy": 0, "dinic": 0}
    for engine in calls:
        real = getattr(sp.solver, f"_min_cut_reachable_{engine}")

        def counted(*args, real=real, engine=engine):
            calls[engine] += 1
            return real(*args)

        monkeypatch.setattr(sp.solver, f"_min_cut_reachable_{engine}", counted)
    return calls


def test_session_computes_one_cut(double_star, engine_calls):
    obj = sp.Objective.p2()
    result = sp.solve(double_star, obj)
    certificates = [sp.check_ghc(double_star, obj, side) for side in (1, 2)]
    trace = sp.run_rendezvous(double_star, sp.RendezvousConfig(objective=obj))
    assert sum(engine_calls.values()) == 1
    assert trace.policy == result.policy
    assert all(c.optimal_cost == result.optimal_cost for c in certificates)
    sp.solve(double_star, sp.Objective.p1(2, 1))
    sp.check_ghc(double_star, sp.Objective.p1(2, 1), 2)
    assert sum(engine_calls.values()) == 2


def test_forced_engines_each_cut_once(double_star, engine_calls):
    obj = sp.Objective.p3(1, 2, Fraction(1, 3))
    by_engine = {engine: sp.solve(double_star, obj, engine=engine) for engine in ("scipy", "dinic")}
    for engine in ("scipy", "dinic"):
        assert sp.solve(double_star, obj, engine=engine) is by_engine[engine]
    assert engine_calls == {"scipy": 1, "dinic": 1}
    assert by_engine["scipy"].policy == by_engine["dinic"].policy
    assert by_engine["scipy"].engine == "scipy" and by_engine["dinic"].engine == "dinic"


def test_refused_engine_is_not_remembered(engine_calls):
    g = sp.build_graph([2**40, 1], [1, 2**40], [(0, 0), (1, 1)])
    for _ in range(2):
        with pytest.raises(sp.ValidationError):
            sp.solve(g, sp.Objective.p2(), engine="scipy")
        with pytest.raises(sp.ValidationError, match="unknown flow engine"):
            sp.solve(g, sp.Objective.p2(), engine="bogus")
    assert engine_calls == {"scipy": 0, "dinic": 0}
    assert sp.solve(g, sp.Objective.p2()).engine == "dinic"


def _solver_outputs(g, obj, engine):
    # SolveResult and GhcCertificate are dataclasses: == compares every field
    return sp.solve(g, obj, engine=engine), [sp.check_ghc(g, obj, side) for side in (1, 2)]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_memoized_results_equal_fresh_graph(rng, picks):
    g = random_graph(rng, max_side=5, rational_costs=True)
    # a few objectives, requested in a sequence with repeats
    pool = [random_objective(rng) for _ in range(3)]
    text = sp.dumps_graph(g)
    for pick in picks:
        obj = pool[pick % 3]
        engine = (None, "scipy", "dinic", None)[pick]
        fresh = sp.loads_graph(text)
        assert _solver_outputs(g, obj, engine) == _solver_outputs(fresh, obj, engine)


def _joined_cover_jobs(rng):
    """(graph, objective) jobs of every kind a sweep can hand over in turn,
    and the one job that the compiled engine refuses: small random graphs,
    one of them under several objectives and one job twice, graphs without
    edges, graphs whose scaled capacity totals pass 2**30 two by two, and
    one graph whose own total is above 2**30."""
    small = [random_graph(rng, max_side=5, rational_costs=True) for _ in range(4)]
    jobs = [(g, random_objective(rng)) for g in small]
    jobs += [(small[0], random_objective(rng)) for _ in range(2)] + [jobs[1]]
    jobs += [(build_quiet([1, 2], [3], []), random_objective(rng)), (sp.build_graph([], [], []), sp.Objective.p2())]
    for k in range(3):
        # a weight of 1 keeps the scale at 1, so the capacities are the weights
        big = [2**29 + rng.randint(1, 1000), 1], [5 + k, 2**28 + rng.randint(1, 1000)]
        jobs.append((sp.build_graph(*big, [(0, 0), (1, 1), (0, 1)]), sp.Objective.p2()))
    huge = (sp.build_graph([2**30, 1], [1, 3], [(0, 0), (1, 1)]), sp.Objective.p2())
    jobs.append(huge)
    rng.shuffle(jobs)
    return jobs, huge


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_joined_covers_equal_separate_solves(rng):
    jobs, huge = _joined_cover_jobs(rng)
    totals = []
    flow = sp.solver._min_cut_reachable_scipy

    def recorded(n, tails, heads, caps):
        totals.append(sum(caps))
        return flow(n, tails, heads, caps)

    for engine in (None, "dinic", "scipy"):
        todo = [job for job in jobs if engine != "scipy" or job is not huge]
        cuts = [(g, *sp.graph.weight_numerators(g, obj)) for g, obj in todo]
        totals.clear()
        with mock.patch.object(sp.solver, "_min_cut_reachable_scipy", recorded):
            found = list(sp.solver._min_cut_covers(iter(cuts), engine))
        # each job comes back once, in job order, with its cover
        assert [id(job) for job, _ in found] == list(map(id, cuts))
        for (g, obj), (_, result) in zip(todo, found):
            assert result == sp.solve(sp.loads_graph(sp.dumps_graph(g)), obj, engine=engine)
        assert all(total < 2**30 for total in totals)
        if engine != "dinic":
            # each big graph needs a network of its own; the small ones join them
            assert len(totals) == 3


def test_joined_networks_hold_at_most_the_arc_cap(monkeypatch):
    # 3, 5, 9 and 3 arcs (vertices plus edges); a cap of 8 joins the first
    # two, cuts the 9-arc graph alone, and starts again with the last
    graphs = [
        sp.build_graph([1], [2], [(0, 0)]),
        sp.build_graph([1, 1], [3], [(0, 0), (1, 0)]),
        sp.build_graph([1, 2, 3], [2, 2], [(0, 0), (1, 0), (1, 1), (2, 1)]),
        sp.build_graph([4], [1], [(0, 0)]),
    ]
    networks = []
    flow = sp.solver._min_cut_reachable_scipy
    monkeypatch.setattr(sp.solver, "_min_cut_reachable_scipy", lambda *net: networks.append(net) or flow(*net))
    monkeypatch.setattr(sp.solver, "_MAX_JOINED_ARCS", 8)
    covers = sp.solver._min_cut_covers((g, *sp.graph.weight_numerators(g, sp.Objective.p2())) for g in graphs)
    # the jobs stream: the first network is cut once the 9-arc graph does not join it
    found = [next(covers)]
    assert [len(tails) for _, tails, _, _ in networks] == [8]
    found += covers
    assert [len(tails) for _, tails, _, _ in networks] == [8, 9, 3]
    for g, ((job_graph, *_), result) in zip(graphs, found):
        assert job_graph is g
        assert result == sp.solve(sp.loads_graph(sp.dumps_graph(g)), sp.Objective.p2())


def test_corrupt_component_of_joined_network_is_refused_and_not_remembered(monkeypatch):
    # side-1 nodes 1, 2 and 3-4, side-2 nodes 5, 6 and 7, sink 8
    graphs = [
        sp.build_graph([2], [1], [(0, 0)]),
        sp.build_graph([5], [3], [(0, 0)]),
        sp.build_graph([1, 1], [4], [(0, 0), (1, 0)]),
    ]
    jobs = [(g, *sp.graph.weight_numerators(g, sp.Objective.p2())) for g in graphs]
    flow = sp.solver._min_cut_reachable_scipy

    def corrupt(n, tails, heads, caps):
        value, reach = flow(n, tails, heads, caps)
        # the second graph's cover holds its side-2 vertex; drop it
        assert n == 9 and 6 in reach
        return value, reach[reach != 6]

    monkeypatch.setattr(sp.solver, "_min_cut_reachable_scipy", corrupt)
    message = "max-flow value 6 of 3 joined cover networks differs from their cut capacity 3$"
    with pytest.raises(sp.InvariantViolation, match=message):
        list(sp.solver._min_cut_covers(jobs))
    monkeypatch.undo()
    costs = [result.optimal_cost for _, result in sp.solver._min_cut_covers(jobs)]
    assert costs == [1, 3, 2]


def test_brute_force_size_guard():
    g = complete_bipartite(12, 12)
    with pytest.raises(sp.ValidationError):
        sp.solve_brute_force(g, sp.Objective.p2())


# -- uniform fast path ---------------------------------------------------------


def test_uniform_matching_double_star(double_star):
    res = sp.solve_uniform_matching(double_star)
    assert res.optimal_cost == 2
    assert res.method == "matching"
    assert len(res.matching) == 2
    assert sp.is_admissible(double_star, res.policy)
    # agrees with the general solver, including the tie-broken cover
    general = sp.solve(double_star, sp.Objective.p2())
    assert res.policy == general.policy


def test_uniform_matching_complete_bipartite():
    g = complete_bipartite(3, 5)
    res = sp.solve_uniform_matching(g)
    assert res.optimal_cost == 3  # the smaller side


def test_uniform_matching_three_regular():
    rng = random.Random(7)
    g = k_regular_bipartite(6, 3, rng)
    res = sp.solve_uniform_matching(g)
    assert res.optimal_cost == 6
    assert sp.solve(g, sp.Objective.p2()).optimal_cost == 6


def test_uniform_matching_rejects_mixed_weights(single_edge):
    with pytest.raises(sp.NonUniformWeights):
        sp.solve_uniform_matching(single_edge)


def test_uniform_matching_equals_solve_randomized():
    rng = random.Random(109)
    for _ in range(30):
        g = random_graph(rng, uniform_weight=Fraction(3, 2))
        fast = sp.solve_uniform_matching(g)
        general = sp.solve(g, sp.Objective.p2())
        assert fast.optimal_cost == general.optimal_cost
        assert fast.policy == general.policy


def test_uniform_weight_zero_gives_minimum_cardinality_cover():
    # every cover costs 0, yet the fast path returns the smallest one: the
    # cover and matching size it returns at weight 1
    for seed in range(30):
        free = sp.solve_uniform_matching(random_graph(random.Random(seed), uniform_weight=0))
        unit = sp.solve_uniform_matching(random_graph(random.Random(seed), uniform_weight=1))
        assert free.optimal_cost == free.certificate == 0
        assert free.policy == unit.policy
        assert len(free.matching) == len(unit.matching) == unit.optimal_cost


def _brute_matching_size(adj, n1):
    """Enumerate every matching recursively; test oracle only."""
    best = 0

    def rec(i, used, count):
        nonlocal best
        if i == len(adj):
            best = max(best, count)
            return
        rec(i + 1, used, count)  # leave vertex i unmatched
        for j in adj[i]:
            if j not in used:
                rec(i + 1, used | {j}, count + 1)

    rec(0, frozenset(), 0)
    return best


def test_matching_size_against_brute_force():
    # independent check of the augmenting-path matcher itself
    rng = random.Random(113)
    for _ in range(20):
        g = random_graph(rng, uniform_weight=1, max_side=5)
        res = sp.solve_uniform_matching(g)
        pos1 = {sv.vid: i for i, sv in enumerate(g.v1)}
        pos2 = {sv.vid: j for j, sv in enumerate(g.v2)}
        adj = [[] for _ in range(len(g.v1))]
        for e in g.edges:
            adj[pos1[e.u]].append(pos2[e.v])
        assert res.optimal_cost == _brute_matching_size(adj, len(g.v1))


# -- Hall / generalized Hall certificates -------------------------------------


def test_ghc_double_star_side1_violated(double_star):
    cert = sp.check_ghc(double_star, sp.Objective.p2(), 1)
    assert not cert.holds
    assert cert.witness == frozenset({sp.VertexId(1, i) for i in (1, 2, 3)})
    assert cert.witness_weight == 3
    assert cert.neighborhood_weight == 1
    improving = cert.improving_policy
    assert improving.ones == frozenset({A1, B1})
    assert sp.objective_cost(double_star, improving, sp.Objective.p2()) == 2 < 4


def test_ghc_refuses_a_witness_no_heavier_than_its_neighbourhood(double_star, monkeypatch):
    # a corrupt optimum below the monolog's cost whose cover keeps the whole
    # side leaves an empty witness
    result, weight, den = sp.solver._optimal_cover(double_star, sp.Objective.p2())
    wrong = dataclasses.replace(result, policy=sp.monolog(double_star, 1))
    monkeypatch.setattr(sp.solver, "_optimal_cover", lambda g, obj, engine=None: (wrong, weight, den))
    with pytest.raises(sp.InvariantViolation, match="^witness weight 0 <= neighborhood weight 0$"):
        sp.check_ghc(double_star, sp.Objective.p2(), 1)


def test_ghc_single_edge_holds():
    g = sp.build_graph([1], [1], [(0, 0)])
    for side in (1, 2):
        cert = sp.check_ghc(g, sp.Objective.p2(), side)
        assert cert.holds


def test_ghc_k33_holds():
    g = complete_bipartite(3, 3)
    assert sp.check_ghc(g, sp.Objective.p2(), 1).holds


def test_ghc_agrees_with_subset_oracle_and_monolog_test():
    rng = random.Random(127)
    for _ in range(60):
        g = random_graph(rng, max_side=5, rational_costs=True)
        obj = random_objective(rng)
        opt = sp.solve(g, obj).optimal_cost
        for side in (1, 2):
            cert = sp.check_ghc(g, obj, side)
            oracle = ghc_subset_oracle(g, obj, side)
            monolog_cost = sp.objective_cost(g, sp.monolog(g, side), obj)
            assert cert.holds == oracle == (monolog_cost == opt)
            if not cert.holds:
                assert cert.witness_weight > cert.neighborhood_weight
                assert sp.is_admissible(g, cert.improving_policy)
                assert sp.objective_cost(g, cert.improving_policy, obj) < monolog_cost


def test_hall_uniform_double_star_false(double_star):
    # maximum matching has size 2 < 4, so side 1 cannot be saturated
    assert not sp.check_hall_uniform(double_star, 1)


def test_hall_uniform_eight_cycle_true():
    # 2-regular bipartite graph on 4+4 vertices: a perfect matching exists
    edges = [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]
    g = sp.build_graph([1] * 4, [1] * 4, edges)
    assert sp.check_hall_uniform(g, 1)
    assert sp.check_hall_uniform(g, 2)


def test_hall_uniform_complete_smaller_side():
    g = complete_bipartite(2, 5)
    assert sp.check_hall_uniform(g, 1)
    assert not sp.check_hall_uniform(g, 2)


def test_hall_uniform_rejects_mixed_weights(single_edge):
    with pytest.raises(sp.NonUniformWeights):
        sp.check_hall_uniform(single_edge, 1)


def test_hall_uniform_refuses_a_third_side(double_star, single_edge):
    with pytest.raises(sp.ValidationError, match="^robot side must be 1 or 2, got 3$"):
        sp.check_hall_uniform(double_star, 3)
    # the weights are checked first
    with pytest.raises(sp.NonUniformWeights):
        sp.check_hall_uniform(single_edge, 3)


def test_hall_iff_ghc_under_uniform_weights():
    rng = random.Random(131)
    for _ in range(40):
        g = random_graph(rng, uniform_weight=2)
        for side in (1, 2):
            hall = sp.check_hall_uniform(g, side)
            ghc = sp.check_ghc(g, sp.Objective.p2(), side).holds
            assert hall == ghc


# -- P1 closed form ------------------------------------------------------------


def test_p1_closed_form_double_star(double_star):
    res = sp.p1_closed_form(double_star, 2, 1)
    assert res.optimal_cost == 7  # min(2, 1) * 7 edges of cost 1
    assert res.policy == sp.monolog(double_star, 1)
    assert res.method == "closed_form"
    assert sp.solve(double_star, sp.Objective.p1(2, 1)).optimal_cost == 7


def test_p1_closed_form_tie_breaks_to_side1(double_star):
    res = sp.p1_closed_form(double_star, 3, 3)
    assert res.policy == sp.monolog(double_star, 1)


def test_p1_closed_form_zero_alpha(double_star):
    res = sp.p1_closed_form(double_star, 1, 0)
    assert res.optimal_cost == 0
    assert res.policy == sp.monolog(double_star, 1)  # larger alpha side transmits


def test_p1_closed_form_matches_solver_randomized():
    rng = random.Random(137)
    for _ in range(40):
        g = random_graph(rng, rational_costs=True)
        a1, a2 = random_fraction(rng), random_fraction(rng)
        closed = sp.p1_closed_form(g, a1, a2)
        assert closed.optimal_cost == min(a1, a2) * g.total_edge_cost()
        assert closed.optimal_cost == sp.solve(g, sp.Objective.p1(a1, a2)).optimal_cost
        assert sp.objective_cost(g, closed.policy, sp.Objective.p1(a1, a2)) == closed.optimal_cost


# 2000 + 2000 vertices: alternating paths twice the default recursion limit
CHAIN = 2000
CHAINS = {
    "down": [(i, i) for i in range(CHAIN)] + [(i + 1, i) for i in range(CHAIN - 1)],
    "up": [(i, i) for i in range(CHAIN)] + [(i, i + 1) for i in range(CHAIN - 1)],
    "reversed": [(i, CHAIN - 1 - i) for i in range(CHAIN)] + [(i, CHAIN - 2 - i) for i in range(CHAIN - 1)],
}


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_matcher_follows_long_alternating_paths(shape):
    # uniform path graphs whose augmenting paths are thousands of edges
    # long; each has a perfect matching
    g = sp.build_graph([1] * CHAIN, [1] * CHAIN, CHAINS[shape])
    res = sp.solve_uniform_matching(g)
    assert res.optimal_cost == CHAIN == len(res.matching)
    assert res.policy == sp.solve(g, sp.Objective.p2()).policy
    assert sp.check_hall_uniform(g, 1)
    assert sp.check_hall_uniform(g, 2)


def test_matcher_is_near_linear_on_long_chains():
    # 20,000 + 20,000 vertices: a search that walks the chain once per
    # root would take minutes
    n = 20_000
    g = sp.build_graph([1] * n, [1] * n, [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)])
    start = time.perf_counter()
    res = sp.solve_uniform_matching(g)
    halls = sp.check_hall_uniform(g, 1), sp.check_hall_uniform(g, 2)
    assert time.perf_counter() - start < 1.0
    assert res.optimal_cost == n == len(res.matching)
    assert halls == (True, True)
    assert res.policy == sp.solve(g, sp.Objective.p2()).policy


def test_matcher_returns_a_maximum_matching():
    # a valid matching whose size is the minimum cover size (Koenig), found
    # by exhaustive search; the same one on every call and on a reloaded copy
    rng = random.Random(149)
    for _ in range(200):
        g = random_graph(rng, max_side=6, uniform_weight=1)
        pairs = sp.solve_uniform_matching(g).matching
        assert set(pairs) <= g.edge_keys()
        assert len({u for u, _ in pairs}) == len(pairs) == len({v for _, v in pairs})
        assert len(pairs) == sp.solve_brute_force(g, sp.Objective.p2()).optimal_cost
        assert [u for u, _ in pairs] == sorted(u for u, _ in pairs)
        copy = sp.loads_graph(sp.dumps_graph(g))
        assert sp.solve_uniform_matching(g) == sp.solve_uniform_matching(copy) == sp.solve_uniform_matching(g)


def test_too_small_matching_raises_invariant_violation(double_star, monkeypatch):
    # a matching one edge short of the cover no longer certifies it
    max_matching = sp.solver._max_matching

    def short(g):
        match = max_matching(g).copy()
        match[match.argmax()] = -1
        return match

    monkeypatch.setattr(sp.solver, "_max_matching", short)
    with pytest.raises(sp.InvariantViolation, match="Koenig cover has 2 vertices, matching 1 edges"):
        sp.solve_uniform_matching(double_star)


def test_strategy_costs_match_the_policy_costs():
    # the costs the CLI prints, against the optimum solve returns and the
    # cost of each strategy's policy, priced vertex by vertex too, and under
    # P2 against the scan bytes of the strategies the rendezvous compares
    rng = random.Random(211)
    objectives = (
        lambda: sp.Objective.p1(random_fraction(rng), random_fraction(rng)),
        sp.Objective.p2,
        lambda: sp.Objective.p3(random_fraction(rng), random_fraction(rng), random_fraction(rng)),
    )
    for _ in range(10):
        g = rational_graph(rng, rng.randint(1, 7), rng.randint(1, 7))
        for make in objectives:
            obj = make()
            policies = (sp.monolog(g, 1), sp.monolog(g, 2), sp.full_bidirectional(g))
            expected = [sp.solve(g, obj).optimal_cost, *(sp.objective_cost(g, pi, obj) for pi in policies)]
            by_vertex = [sum(sp.effective_weight(g, vid, obj) for vid in pi.ones) for pi in policies]
            assert expected[1:] == by_vertex
            for engine in (None, "scipy", "dinic"):
                assert sp.solver._strategy_costs(*sp.solver._optimal_cover(g, obj, engine)) == expected
            if obj.variant == "p2":
                rows = sp.compare_strategies(g, sp.RendezvousConfig(objective=obj))
                assert [row.scan_bytes for row in rows] == expected


def test_strategy_costs_of_a_graph_without_vertices_are_zero():
    g = sp.build_graph([], [], [])
    for obj in (sp.Objective.p1(2, 3), sp.Objective.p2(), sp.Objective.p3(1, 2, 3)):
        for engine in (None, "scipy", "dinic"):
            assert sp.solver._strategy_costs(*sp.solver._optimal_cover(g, obj, engine)) == [0, 0, 0, 0]
