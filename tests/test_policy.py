"""Policies, admissibility, costs, workloads, and execution order."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

import scanplan as sp
from scanplan.policy import dumps_policy, loads_policy

from conftest import A1, B1, random_admissible_policy, random_graph, random_objective, relabelled


def cover_policy(g, pairs):
    return sp.Policy(g.vertex_ids, [sp.VertexId(s, i) for s, i in pairs])


def test_admissible_double_star_cover(double_star):
    pi = cover_policy(double_star, [(1, 0), (2, 0)])
    assert sp.is_admissible(double_star, pi)


def test_all_zeros_inadmissible(double_star):
    assert not sp.is_admissible(double_star, sp.Policy(double_star.vertex_ids, ()))


def test_every_monolog_admissible():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng)
        for side in (1, 2):
            assert sp.is_admissible(g, sp.monolog(g, side))


def test_monolog_labels(double_star):
    pi = sp.monolog(double_star, 1)
    assert pi.ones == frozenset(sv.vid for sv in double_star.v1)
    for sv in double_star.v2:
        assert pi.label(sv.vid) == 0


def test_monolog_empty_side_rejected():
    empty = sp.build_graph([], [], [])
    with pytest.raises(sp.EmptySide):
        sp.monolog(empty, 2)


def test_comm_cost_values(double_star):
    cover = cover_policy(double_star, [(1, 0), (2, 0)])
    assert sp.comm_cost(double_star, cover) == 2
    # the brute-force oracle confirms 2 is also the optimum
    assert sp.solve_brute_force(double_star, sp.Objective.p2()).optimal_cost == 2
    assert sp.comm_cost(double_star, sp.monolog(double_star, 1)) == 4
    assert sp.comm_cost(double_star, sp.Policy(double_star.vertex_ids, ())) == 0


def test_comm_cost_uses_inertia_override():
    g = sp.build_graph([10], [10], [(0, 0)], v1_inertia={0: 3})
    pi = sp.full_bidirectional(g)
    assert sp.comm_cost(g, pi) == 13


def test_workloads_double_star_cover(double_star):
    pi = cover_policy(double_star, [(1, 0), (2, 0)])
    rep = sp.workloads(double_star, pi, 1, 1)
    # robot 1 receives the side-2 hub's scan and screens its 4 edges
    assert rep.ell1 == 4 and rep.ell2 == 4
    assert rep.l1_edges == frozenset(e.key for e in double_star.edges if e.v == B1)
    assert rep.l2_edges == frozenset(e.key for e in double_star.edges if e.u == A1)
    assert rep.l12_edges == frozenset({(A1, B1)})
    assert rep.f_balance == 8


def test_workloads_monolog(double_star):
    rep = sp.workloads(double_star, sp.monolog(double_star, 1), 1, 1)
    assert rep.ell1 == 0
    assert rep.ell2 == 7  # every candidate lands on robot 2
    assert rep.l1_edges == frozenset()
    assert rep.l2_edges == double_star.edge_keys()
    assert rep.l12_edges == frozenset()


def test_workloads_requires_admissible(double_star):
    with pytest.raises(sp.InadmissiblePolicy):
        sp.workloads(double_star, sp.Policy(double_star.vertex_ids, ()), 1, 1)


def test_workloads_against_per_edge_oracle():
    # assign each edge to the robots that verify it, one edge at a time
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, max_side=6, rational_costs=True)
        pi = random_admissible_policy(g, rng)
        rep = sp.workloads(g, pi, 1, 1)
        ell1 = ell2 = Fraction(0)
        l1, l2 = set(), set()
        for e in g.edges:
            if pi.label(e.v) == 1:
                ell1 += e.cost
                l1.add(e.key)
            if pi.label(e.u) == 1:
                ell2 += e.cost
                l2.add(e.key)
        assert (rep.ell1, rep.ell2) == (ell1, ell2)
        assert rep.l1_edges == frozenset(l1)
        assert rep.l2_edges == frozenset(l2)
        assert rep.l12_edges == frozenset(l1 & l2)
        # complete search: the partition covers the candidate set
        assert rep.l1_edges | rep.l2_edges == g.edge_keys()


def test_objective_cost_p1_monolog(double_star):
    pi = sp.monolog(double_star, 1)
    assert sp.objective_cost(double_star, pi, sp.Objective.p1(1, 1)) == 7


def test_objective_cost_p3_example(double_star):
    pi = cover_policy(double_star, [(1, 0), (2, 0)])
    obj = sp.Objective.p3(1, 1, 1)
    assert sp.objective_cost(double_star, pi, obj) == 2 + (4 + 4)
    # and the brute-force enumeration confirms this policy is optimal
    assert sp.solve_brute_force(double_star, obj).optimal_cost == 10


def test_objective_cost_matches_effective_weight_sum():
    from scanplan.graph import effective_weight

    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rational_costs=True)
        obj = random_objective(rng)
        pi = random_admissible_policy(g, rng)
        direct = sum(
            (effective_weight(g, vid, obj) for vid in pi.ones), Fraction(0)
        )
        assert sp.objective_cost(g, pi, obj) == direct


def test_p3_zero_omega_collapses_to_p2():
    rng = random.Random(37)
    for _ in range(10):
        g = random_graph(rng)
        pi = random_admissible_policy(g, rng)
        p3 = sp.Objective.p3(3, 4, 0)
        assert sp.objective_cost(g, pi, p3) == sp.objective_cost(g, pi, sp.Objective.p2())


def test_flipping_label_up_never_cheapens():
    rng = random.Random(41)
    for _ in range(15):
        g = random_graph(rng, rational_costs=True)
        obj = random_objective(rng)
        pi = random_admissible_policy(g, rng)
        base = sp.objective_cost(g, pi, obj)
        for vid in g.vertex_ids:
            if vid in pi.ones:
                continue
            flipped = sp.Policy(g.vertex_ids, set(pi.ones) | {vid})
            assert sp.objective_cost(g, flipped, obj) >= base


def test_execute_order_cover(double_star):
    pi = cover_policy(double_star, [(1, 0), (2, 0)])
    order = sp.execute_order(double_star, pi)
    assert order == [
        sp.Transmission(A1, 2, Fraction(1)),
        sp.Transmission(B1, 1, Fraction(1)),
    ]


def test_execute_order_monolog_ascending(double_star):
    order = sp.execute_order(double_star, sp.monolog(double_star, 1))
    assert [t.vertex for t in order] == [sp.VertexId(1, i) for i in range(4)]
    assert all(t.dest_side == 2 for t in order)


def test_execute_order_total_equals_comm_cost():
    rng = random.Random(43)
    for _ in range(15):
        g = random_graph(rng)
        pi = random_admissible_policy(g, rng)
        order = sp.execute_order(g, pi)
        assert sum((t.size for t in order), Fraction(0)) == sp.comm_cost(g, pi)


def test_execute_order_requires_admissible(double_star):
    with pytest.raises(sp.InadmissiblePolicy):
        sp.execute_order(double_star, sp.Policy(double_star.vertex_ids, ()))


def test_policy_refuses_labels_outside_its_domain():
    with pytest.raises(sp.ValidationError, match="^labeled vertices outside the policy domain$"):
        sp.Policy([A1], [A1, B1])


def test_label_domain_mismatch(double_star, single_edge):
    pi = sp.monolog(single_edge, 1)
    with pytest.raises(sp.LabelDomainMismatch):
        sp.comm_cost(double_star, pi)
    with pytest.raises(sp.LabelDomainMismatch):
        pi.label(sp.VertexId(1, 3))


def test_label_domain_mismatch_message_is_short():
    # the message listed every missing and extra VertexId repr
    vertices = [(i, 1, None) for i in range(3000)]
    g = sp.ExchangeGraph.from_vertices(vertices, vertices, [(i, i, 1) for i in range(3000)])
    pi = sp.Policy([sp.VertexId(1, i) for i in range(1, 3000)] + [sp.VertexId(2, i) for i in range(5000, 5010)], ())
    with pytest.raises(sp.LabelDomainMismatch) as caught:
        sp.is_admissible(g, pi)
    assert str(caught.value) == (
        "policy domain mismatch (missing 3001: [1:0, 2:0, 2:1, 2:2, 2:3, 2:4, 2:5, 2:6, ... (2993 more)], "
        "extra 10: [2:5000, 2:5001, 2:5002, 2:5003, 2:5004, 2:5005, 2:5006, 2:5007, ... (2 more)])"
    )


def test_p1_cost_defined_for_inadmissible(double_star):
    # pure per-vertex sum works on the all-zeros labeling
    assert sp.objective_cost(double_star, sp.Policy(double_star.vertex_ids, ()), sp.Objective.p1(1, 1)) == 0


def test_p1_cost_rejects_negative_alpha(double_star):
    with pytest.raises(sp.ValidationError):
        sp.objective_cost(double_star, sp.monolog(double_star, 1), sp.Objective.p1(-1, 1))


def test_policy_file_round_trip(double_star):
    pi = cover_policy(double_star, [(1, 0), (2, 2)])
    assert loads_policy(dumps_policy(pi)) == pi


def test_policy_file_malformed():
    with pytest.raises(sp.GraphFormatError):
        loads_policy("nope")
    with pytest.raises(sp.GraphFormatError):
        loads_policy('{"labels": [{"side": 1}]}')
    # side, index and bit must be JSON integers, never truncated to one
    for side, index, bit in (("1.9", 0, 1), ("true", 0, 1), (1, "0.5", 1), (1, 0, "true"), (1, 0, "1.0")):
        with pytest.raises(sp.GraphFormatError):
            loads_policy('{"labels": [{"side": %s, "index": %s, "bit": %s}]}' % (side, index, bit))


def test_policy_file_names_the_bad_label():
    with pytest.raises(sp.GraphFormatError, match=r"^labels\[1\] must be an object$"):
        loads_policy('{"labels": [{"side": 1, "index": 0, "bit": 1}, "y"]}')
    with pytest.raises(sp.GraphFormatError, match="^'labels' must be an array$"):
        loads_policy('{"labels": {"side": 1}}')


@pytest.mark.parametrize("text", ["[]", "5", '"x"'])
def test_policy_file_that_is_not_an_object_is_refused(text):
    # each leaked Python's own text, such as TypeError('list indices must be
    # integers or slices, not str')
    with pytest.raises(sp.GraphFormatError, match="^policy file must hold a JSON object$"):
        loads_policy(text)


def shuffled_id_graph(rng):
    """A random graph whose vertex ids are scattered and stored out of
    order, read from its file, and the file's text."""
    g0 = random_graph(rng)
    ids = [rng.sample(range(100), len(side)) for side in g0.ids]
    text = sp.dumps_graph(
        sp.ExchangeGraph.from_vertices(
            *(
                [(ids[s][k], Fraction(size, g0.den), None) for k, size in enumerate(g0.size_num[s])]
                for s in (0, 1)
            ),
            [(ids[0][i], ids[1][j], Fraction(c, g0.den)) for i, j, c in zip(g0.eu.tolist(), g0.ev.tolist(), g0.cost_num)],
        )
    )
    return sp.loads_graph(text), text


def test_solver_policy_equals_its_set_backed_twins():
    # a solver policy keeps per-side masks over its graph's ids; a policy
    # from labels, ids or a file keeps frozensets; both are one value
    rng = random.Random(307)
    for _ in range(60):
        g, text = shuffled_id_graph(rng)
        obj = random_objective(rng)
        pi = sp.solve(g, obj).policy
        from_file = loads_policy(dumps_policy(pi))
        from_labels = sp.Policy.from_labels({vid: int(vid in pi.ones) for vid in g.vertex_ids})
        from_ids = sp.Policy(g.vertex_ids, pi.ones)
        second = sp.solve(sp.loads_graph(text), obj).policy  # equal ids, another graph
        for twin in (from_file, from_labels, from_ids, second):
            assert pi == twin and twin == pi and not pi != twin
            assert hash(pi) == hash(twin)
            assert repr(pi) == repr(twin)
            assert dumps_policy(twin) == dumps_policy(pi)
            assert all(pi.label(vid) == twin.label(vid) for vid in g.vertex_ids)
        for made in (sp.monolog(g, 1), sp.monolog(g, 2), sp.full_bidirectional(g)):
            twin = sp.Policy(made.domain, made.ones)
            assert made == twin and hash(made) == hash(twin) and dumps_policy(made) == dumps_policy(twin)
            assert sp.is_admissible(g, made) and sp.is_admissible(g, twin)
        # an inadmissible mask-backed policy: all zeros on an edged graph
        none = sp.Policy._over(g.ids, [np.zeros(len(ids), bool) for ids in g.ids])
        assert none == sp.Policy(g.vertex_ids, ()) and not sp.is_admissible(g, none)
        assert pi != none and none != sp.Policy(g.vertex_ids, g.vertex_ids)
        assert sp.objective_cost(g, pi, obj) == sp.objective_cost(g, from_file, obj) == sp.solve(g, obj).optimal_cost


def test_mask_backed_policy_file_is_the_set_backed_one():
    # ids with gaps, stored out of order, one past 2**63: a policy over the
    # graph's masks writes each side in ascending id order, as one holding
    # frozensets does, and reads back equal
    rng = random.Random(337)
    unsorted = 0
    for _ in range(30):
        g = relabelled(random_graph(rng, max_side=9), rng)
        unsorted += any(list(ids) != sorted(ids) for ids in g.ids)
        masks = [np.array([rng.random() < 0.5 for _ in ids]) for ids in g.ids]
        for pi in (sp.Policy._over(g.ids, masks), sp.solve(g, random_objective(rng)).policy):
            twin = sp.Policy(pi.domain, pi.ones)
            text = dumps_policy(pi)
            assert text == dumps_policy(twin)
            assert loads_policy(text) == pi == twin
    assert unsorted > 20


def test_mask_policy_over_another_graph_keeps_the_mismatch_message(double_star, single_edge):
    cases = (
        (double_star, sp.solve(single_edge, sp.Objective.p2()).policy),
        (single_edge, sp.monolog(double_star, 2)),
    )
    for other, pi in cases:
        twin = sp.Policy(pi.domain, pi.ones)
        with pytest.raises(sp.LabelDomainMismatch) as expected:
            sp.is_admissible(other, twin)
        for call in (sp.is_admissible, sp.comm_cost, sp.execute_order):
            with pytest.raises(sp.LabelDomainMismatch, match=f"^{re.escape(str(expected.value))}$"):
                call(other, pi)
    assert str(expected.value) == "policy domain mismatch (missing 0: [], extra 6: [1:1, 1:2, 1:3, 2:1, 2:2, 2:3])"
