"""Exact solver, matching fast path, and monolog-optimality certificates,
all cross-checked against exhaustive oracles on small instances."""

import random
from fractions import Fraction

import pytest

import scanplan as sp
from scanplan.solver import _max_matching

from conftest import (
    A1,
    B1,
    build_quiet,
    ghc_subset_oracle,
    random_fraction,
    random_graph,
    random_objective,
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


def test_scaling_leaves_cover_unchanged():
    rng = random.Random(103)
    for _ in range(15):
        g = random_graph(rng, rational_costs=True)
        obj = sp.Objective.p2()
        base = sp.solve(g, obj)
        # same vertex ids, every scan weight multiplied by 5
        scaled_g = sp.ExchangeGraph.from_vertices(
            [(sv.vid.index, sv.scan_size * 5, None) for sv in g.v1],
            [(sv.vid.index, sv.scan_size * 5, None) for sv in g.v2],
            [(e.u.index, e.v.index, e.cost) for e in g.edges],
        )
        scaled = sp.solve(scaled_g, obj)
        assert scaled.optimal_cost == 5 * base.optimal_cost
        assert scaled.policy.ones == base.policy.ones


def test_empty_graph_solves_to_nothing():
    g = sp.build_graph([], [], [])
    res = sp.solve(g, sp.Objective.p2())
    assert res.optimal_cost == 0 and res.policy.ones == frozenset()


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


def test_internal_matcher_is_deterministic():
    adj = [[0, 1], [0], [1, 2]]
    m1a, m2a = _max_matching([list(a) for a in adj], 3)
    m1b, m2b = _max_matching([list(a) for a in adj], 3)
    assert (m1a, m2a) == (m1b, m2b)


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
