"""Exchange-graph model: construction, validation, weights, serialization."""

import contextlib
import copy
import functools
import hashlib
import json
import math
import random
import re
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scanplan as sp
from scanplan import graph
from scanplan.candidates import make_pose
from scanplan.cli import SweepSpec
from scanplan.graph import (
    MAX_DENOMINATOR_DIGITS,
    _rational_texts,
    effective_weight,
    format_rational,
    weight_numerators,
)
from scanplan.objectives import _shown, as_fraction

from conftest import build_quiet, random_fraction, random_graph


def test_double_star_shape(double_star):
    assert double_star.num_vertices == 8
    assert double_star.num_edges == 7
    assert len(double_star.v1) == 4 and len(double_star.v2) == 4


def test_smallest_admissible_instance(single_edge):
    assert single_edge.num_vertices == 2
    assert single_edge.num_edges == 1
    assert single_edge.vertex(sp.VertexId(1, 0)).effective_scan_size == 5
    assert single_edge.vertex(sp.VertexId(2, 0)).effective_scan_size == 3


def test_isolated_vertex_pruned_with_warning():
    with pytest.warns(UserWarning, match="pruned 1 isolated"):
        g = sp.build_graph([1, 1], [1], [(0, 0, 1)])
    assert g.num_vertices == 2
    assert g.pruned == (sp.VertexId(1, 1),)
    assert sp.VertexId(1, 1) not in g


def test_duplicate_edge_rejected():
    with pytest.raises(sp.DuplicateEdge):
        sp.build_graph([1], [1], [(0, 0, 1), (0, 0, 2)])


def test_negative_weight_rejected():
    with pytest.raises(sp.NegativeWeight):
        sp.build_graph([-1], [1], [(0, 0, 1)])
    with pytest.raises(sp.NegativeWeight):
        sp.build_graph([1], [1], [(0, 0, -2)])
    with pytest.raises(sp.ValidationError):
        sp.build_graph([float("nan")], [1], [(0, 0, 1)])


def test_index_out_of_range_rejected():
    with pytest.raises(sp.IndexOutOfRange):
        sp.build_graph([1], [1], [(0, 1, 1)])
    with pytest.raises(sp.IndexOutOfRange):
        sp.build_graph([1], [1], [(2, 0, 1)])


def seed_build_graph(v1_weights, v2_weights, edges, v1_inertia=None, v2_inertia=None):
    """Frozen reference: build_graph as a round trip through from_vertices."""
    v1_inertia = v1_inertia or {}
    v2_inertia = v2_inertia or {}
    v1 = [(i, w, v1_inertia.get(i)) for i, w in enumerate(v1_weights)]
    v2 = [(i, w, v2_inertia.get(i)) for i, w in enumerate(v2_weights)]
    n1, n2 = len(v1), len(v2)
    norm_edges = []
    for item in edges:
        if len(item) == 2:
            u, v = item
            cost = 1
        else:
            u, v, cost = item
        if not (0 <= int(u) < n1) or not (0 <= int(v) < n2):
            raise sp.IndexOutOfRange(f"edge ({_shown(u, str)}, {_shown(v, str)}) outside vertex ranges")
        norm_edges.append((u, v, cost))
    return sp.ExchangeGraph.from_vertices(v1, v2, norm_edges)


def build_outcome(build, args, kwargs):
    """The graph's file text, pruned ids and warning texts, or the error's
    type and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = build(*args, **kwargs)
        except Exception as exc:  # the reference's own errors are compared too
            return type(exc), str(exc)
    return sp.dumps_graph(g), g.pruned, [str(w.message) for w in caught]


NAN = float("nan")

BUILD_CASES = {
    # valid inputs
    "pairs and triples": (([1, 2], [3, 4, 5], [(0, 0), [1, 2, Fraction(1, 3)], (0, 2, "0.25")]), {}),
    "pruned": (([1, 2, 3], [4, 5], [(1, 1, 2)]), {}),
    "many pruned": (([1] * 12, [1] * 3, [(0, 0)]), {}),
    "inertia, keys outside ignored": (([1, 2], [3], [(0, 0), (1, 0)]), {"v1_inertia": {1: "1/7", 5: NAN, -1: 3}, "v2_inertia": {0: 2.5}}),
    "numpy and bool indices": (([1, 2], [3, 4], [(np.int64(1), np.int32(0)), (True, True)]), {}),
    "integral float indices": (([1, 2], [3, 4], [(1.0, np.float64(0.0)), (0.0, -0.0)]), {}),
    "float indices refused": (([1, 2], [3, 4], [(0.5, 1.9), (-0.5, 0.0)]), {}),
    "string indices": (([1, 2], [3], [("1", "0")]), {}),
    "iterator weights": (((1, 2), (3,), ((1, 0),)), {}),
    "no edges": (([1], [2], []), {}),
    "float and decimal weights": (([0.1, "2.5"], [Fraction(2, 3)], [(0, 0, 0.5), (1, 0, 1e-3)]), {}),
    # one fault each
    "edge of length 1": (([1], [1], [(0,)]), {}),
    "edge of length 4": (([1], [1], [(0, 0, 1, 1)]), {}),
    "edge without a length": (([1], [1], [5]), {}),
    "u out of range": (([1], [1], [(1, 0)]), {}),
    "v negative": (([1], [1], [(0, -1)]), {}),
    "u beyond int64": (([1], [1], [(2**70, 0)]), {}),
    "float u refused before its range": (([1], [1], [(1.5, 0)]), {}),
    "bad u text": (([1], [1], [("x", 0)]), {}),
    "u out of range hides bad v": (([1], [1], [(3, "x")]), {}),
    "bad v after good u": (([1], [1], [(0, None)]), {}),
    "infinite u": (([1], [1], [(float("inf"), 0)]), {}),
    "nan weight": (([NAN], [1], [(0, 0)]), {}),
    "inf weight": (([1], [float("inf")], [(0, 0)]), {}),
    "nan inertia": (([1], [1], [(0, 0)]), {"v1_inertia": {0: NAN}}),
    "nan cost": (([1], [1], [(0, 0, NAN)]), {}),
    "negative weight": (([-1], [1], [(0, 0)]), {}),
    "negative cost": (([1], [1], [(0, 0, -2)]), {}),
    "duplicate edge": (([1], [1], [(0, 0), (0, 0, 3)]), {}),
    # several faults: edges first, then sizes and prices, then costs
    "out of range before bad shape": (([1], [1], [(0, 0), (4, 0), (0,)]), {}),
    "out of range before nan weight": (([NAN], [1], [(0, 0), (0, 9)]), {}),
    "weight before cost": (([1, "bad size"], [1], [(0, 0, "bad cost"), (1, 0)]), {}),
    "price of 1:0 before size of 1:1": (([1, NAN], [1], [(0, 0), (1, 0)]), {"v1_inertia": {0: "bad price"}}),
    "side 1 before side 2": (([1, 1], ["bad size"], [(0, 0), (1, 0)]), {"v1_inertia": {1: "bad price"}}),
    "nan cost before negative weight": (([-1], [1], [(0, 0, NAN)]), {}),
    "duplicate before negative cost": (([1, 1], [1], [(1, 0, 1), (1, 0, 2), (0, 0, -1)]), {}),
}


# where build_graph refuses what the reference truncates with int(), or
# lets int() or unpacking an edge fail with a bare TypeError, ValueError or
# OverflowError
REFUSED_CASES = {
    "edge of length 1": (sp.ValidationError, "edge (0,) is not a (u, v) or (u, v, cost) tuple"),
    "edge of length 4": (sp.ValidationError, "edge (0, 0, 1, 1) is not a (u, v) or (u, v, cost) tuple"),
    "edge without a length": (sp.ValidationError, "edge 5 is not a (u, v) or (u, v, cost) tuple"),
    "float indices refused": (sp.IndexOutOfRange, "edge (0.5, 1.9) has a non-integral index 0.5"),
    "float u refused before its range": (sp.IndexOutOfRange, "edge (1.5, 0) has a non-integral index 1.5"),
    "bad u text": (sp.IndexOutOfRange, "edge (x, 0) has a non-integer index 'x'"),
    "bad v after good u": (sp.IndexOutOfRange, "edge (0, None) has a non-integer index None"),
    "infinite u": (sp.IndexOutOfRange, "edge (inf, 0) has a non-integer index inf"),
}


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_build_graph_matches_from_vertices_reference(case):
    args, kwargs = BUILD_CASES[case]

    def fresh():  # a tuple argument is passed as a one-shot iterator
        return [iter(a) if isinstance(a, tuple) else a for a in args]

    expected = REFUSED_CASES.get(case) or build_outcome(seed_build_graph, fresh(), kwargs)
    assert build_outcome(sp.build_graph, fresh(), kwargs) == expected


@pytest.mark.parametrize(
    "edge, message",
    [
        ((np.float64(2.5), 0), "edge (2.5, 0) has a non-integral index 2.5"),
        ((0, Fraction(3, 2)), "edge (0, 3/2) has a non-integral index 3/2"),
        ((1, np.float32(0.25)), "edge (1, 0.25) has a non-integral index 0.25"),
        ((-0.5, 0), "edge (-0.5, 0) has a non-integral index -0.5"),
    ],
)
def test_build_graph_refuses_non_integral_indices(edge, message):
    # a truncated index would name another vertex; exit code 3 in the CLI
    with pytest.raises(sp.IndexOutOfRange, match=f"^{re.escape(message)}$") as caught:
        sp.build_graph([1, 2], [1, 2], [(0, 0), edge])
    assert isinstance(caught.value, sp.ValidationError)


@pytest.mark.parametrize(
    "scores, message",
    [
        ([(1.5, 0, 0.9), (0, 0.7, 0.8)], "score pair (1.5, 0) has a non-integral index 1.5"),
        ([(0, 0, 0.2), (np.float64(0.0), 0.7, 0.8)], "score pair (0.0, 0.7) has a non-integral index 0.7"),
        ([("x", 0, 0.9)], "score pair (x, 0) has a non-integer index 'x'"),
    ],
)
def test_build_appearance_refuses_non_integral_indices(scores, message):
    # int() would turn (1.5, 0) into the pair 1:1--2:0, and fail bare on 'x';
    # exit code 3 in the CLI
    with pytest.raises(sp.IndexOutOfRange, match=f"^{re.escape(message)}$"):
        sp.build_appearance(scores, [1, 1], [1], sp.AppearanceParams(alpha=0.5))


def test_build_appearance_keeps_integral_index_forms():
    plain = sp.build_appearance([(1, 0, 0.9), (0, 1, 0.8)], [1, 1], [1, 1], sp.AppearanceParams(alpha=0.5))
    other = [(1.0, np.int64(0), 0.9), (False, "1", 0.8)]
    again = sp.build_appearance(other, [1, 1], [1, 1], sp.AppearanceParams(alpha=0.5))
    assert sp.dumps_graph(again) == sp.dumps_graph(plain)


def test_from_vertices_refuses_non_integral_ids():
    # each would name another vertex if truncated; exit code 3 in the CLI
    with pytest.raises(sp.IndexOutOfRange, match=r"^side 1 vertex has a non-integral index 1.5$"):
        sp.ExchangeGraph.from_vertices([(1.5, 1, None)], [(0, 1, None)], [(1, 0, 1)])
    with pytest.raises(sp.IndexOutOfRange, match=r"^edge \(1, 1.5\) has a non-integral index 1.5$"):
        sp.ExchangeGraph.from_vertices([(1, 1, None)], [(1, 1, None)], [(1, 1.5, 1)])
    with pytest.raises(sp.IndexOutOfRange, match=r"^side 1 vertex has a non-integer index None$"):
        sp.ExchangeGraph.from_vertices([(None, 1, None)], [(0, 1, None)], [])
    with pytest.raises(sp.IndexOutOfRange, match=r"^edge \(1, x\) has a non-integer index 'x'$"):
        sp.ExchangeGraph.from_vertices([(1, 1, None)], [(1, 1, None)], [(1, "x", 1)])
    g = sp.ExchangeGraph.from_vertices([(np.int64(1), 1, None)], [(1.0, 1, None)], [("1", True, 1)])
    assert g.edge_keys() == {(sp.VertexId(1, 1), sp.VertexId(2, 1))}


# One fault on vertex 1:3 each, with the error it raises when 1:3 has an
# edge: (side-1 vertices, error, message).
ISOLATED_FAULTS = {
    "negative size": ([(0, 1, None), (3, -5, None)], sp.NegativeWeight, "scan_size of 1:3 is negative: -5"),
    "negative price": ([(0, 1, None), (3, 1, -5)], sp.NegativeWeight, "inertia of 1:3 is negative: -5"),
    "negative id": ([(0, 1, None), (-3, 1, None)], sp.IndexOutOfRange, "negative vertex index 1:-3"),
    "duplicate id": ([(0, 1, None), (3, 1, None), (3, 7, None)], sp.ValidationError, "duplicate vertex id 1:3"),
}


def graph_text(v1, edges):
    entries = [{"id": i, "scan_size": w} | ({} if p is None else {"inertia": p}) for i, w, p in v1]
    return json.dumps({"v1": entries, "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": u, "v": 0} for u in edges]})


@pytest.mark.parametrize("case", sorted(ISOLATED_FAULTS))
def test_isolated_vertex_is_checked_before_pruning(case):
    v1, error, message = ISOLATED_FAULTS[case]
    touched = v1[-1][0]
    for ends in ([0], [0, touched]):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sp.ExchangeGraph.from_vertices(v1, [(0, 1, None)], [(u, 0, 1) for u in ends])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sp.loads_graph(graph_text(v1, ends))


@pytest.mark.parametrize("kwargs", [{}, {"v1_inertia": {1: -5}}])
def test_build_graph_checks_isolated_vertices(kwargs):
    message = "inertia of 1:1 is negative: -5" if kwargs else "scan_size of 1:1 is negative: -3"
    for edges in ([(0, 0)], [(0, 0), (1, 0)]):
        with pytest.raises(sp.NegativeWeight, match=f"^{re.escape(message)}$"):
            sp.build_graph([1, 3 if kwargs else -3], [1], edges, **kwargs)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pruning_matches_leaving_out_untouched_vertices(data):
    def vertices(side):
        ids = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True), label=f"ids{side}")
        sizes = st.fractions(0, 100, max_denominator=12)
        return [(i, data.draw(sizes), data.draw(st.one_of(st.none(), sizes))) for i in ids]

    v1, v2 = vertices(1), vertices(2)
    pairs = [(u, v) for u, _, _ in v1 for v, _, _ in v2]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True), label="edges")
    edges = [(u, v, data.draw(st.integers(0, 9))) for u, v in chosen]
    touched = ({u for u, _ in chosen}, {v for _, v in chosen})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = sp.ExchangeGraph.from_vertices(v1, v2, edges)
    kept = sp.ExchangeGraph.from_vertices(
        [x for x in v1 if x[0] in touched[0]], [x for x in v2 if x[0] in touched[1]], edges
    )
    assert sp.dumps_graph(g) == sp.dumps_graph(kept)
    untouched = [sp.VertexId(side, x[0]) for side, vs in ((1, v1), (2, v2)) for x in vs if x[0] not in touched[side - 1]]
    assert g.pruned == tuple(sorted(untouched))


@pytest.mark.parametrize(
    "build",
    [
        lambda: sp.build_graph([1, 1], [1], [(0, 0)]),
        lambda: sp.ExchangeGraph.from_vertices([(0, 1, None), (1, 1, None)], [(0, 1, None)], [(0, 0, 1)]),
        lambda: sp.loads_graph(graph_text([(0, 1, None), (1, 1, None)], [0])),
    ],
    ids=["build_graph", "from_vertices", "loads_graph"],
)
def test_pruning_warning_names_the_caller(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build()
    assert [str(w.message) for w in caught] == ["pruned 1 isolated vertices (no candidate edges): 1:1"]
    assert caught[0].filename == __file__


def test_zero_cost_edges_admitted():
    # zero verification cost does not excuse the edge from coverage
    g = sp.build_graph([1], [1], [(0, 0, 0)])
    assert g.num_edges == 1
    assert not sp.is_admissible(g, sp.Policy(g.vertex_ids, ()))


def test_effective_weight_p1_double_star(double_star):
    # hub on side 1 has degree 4; its workload price is alpha2 * 4
    obj = sp.Objective.p1(alpha1=2, alpha2=1)
    a1 = sp.VertexId(1, 0)
    assert effective_weight(double_star, a1, obj) == 4
    # independent recomputation straight from the incident edge costs
    assert effective_weight(double_star, a1, obj) == sum(e.cost for e in double_star.edges if a1 in e.key) * 1
    # a leaf on side 2 is priced with alpha1
    b2 = sp.VertexId(2, 1)
    assert effective_weight(double_star, b2, obj) == 2


def test_effective_weight_p2_is_scan_size():
    g = sp.build_graph([37], [4], [(0, 0, 1)])
    assert effective_weight(g, sp.VertexId(1, 0), sp.Objective.p2()) == 37


def test_effective_weight_p3_zero_omega_collapses(double_star):
    p2 = sp.Objective.p2()
    p3 = sp.Objective.p3(alpha1=3, alpha2=5, omega=0)
    for vid in double_star.vertex_ids:
        assert effective_weight(double_star, vid, p3) == effective_weight(double_star, vid, p2)


def test_effective_weight_monotone_in_omega(double_star):
    omegas = [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(10)]
    for vid in double_star.vertex_ids:
        values = [
            effective_weight(double_star, vid, sp.Objective.p3(2, 3, w)) for w in omegas
        ]
        assert values == sorted(values)


def test_inertia_override_replaces_scan_size():
    g = sp.build_graph([10], [10], [(0, 0, 2)], v1_inertia={0: 99})
    v = sp.VertexId(1, 0)
    assert effective_weight(g, v, sp.Objective.p2()) == 99
    # p3 composes the override with the workload term
    assert effective_weight(g, v, sp.Objective.p3(1, 1, 1)) == 99 + 2
    # p1 ignores scan size entirely, so the override is irrelevant
    assert effective_weight(g, v, sp.Objective.p1(1, 1)) == 2


def test_unknown_vertex_rejected(double_star):
    with pytest.raises(sp.UnknownVertex):
        effective_weight(double_star, sp.VertexId(1, 99), sp.Objective.p2())


# one vertex per side and one edge, as the constructor's index arrays
ONE_EDGE_ARRAYS = dict(
    ids=([0], [0]), den=1, size_num=([1], [1]), inertia_num=([None], [None]), eu=[0], ev=[0], cost_num=[1]
)


@pytest.mark.parametrize(
    "arrays, error, message",
    [
        ({"den": 0}, sp.ValidationError, "common denominator must be a positive integer, got 0"),
        ({"den": -1}, sp.ValidationError, "common denominator must be a positive integer, got -1"),
        ({"ids": ([0, 1], [0])}, sp.ValidationError, "side 1 arrays differ in length"),
        ({"cost_num": [1, 1]}, sp.ValidationError, "edge endpoint arrays and edge costs differ in length"),
        ({"ev": [1]}, sp.IndexOutOfRange, "edge 0 references a missing vertex position"),
        ({"cost_num": [1.5]}, sp.ValidationError, "expected integer numerators, got 1.5"),
        ({"cost_num": np.array([0.5])}, sp.ValidationError, "expected integer numerators, got 0.5"),
        ({"cost_num": ["5"]}, sp.ValidationError, "expected integer numerators, got '5'"),
        ({"cost_num": [Fraction(3, 2)]}, sp.ValidationError, "expected integer numerators, got Fraction(3, 2)"),
    ],
)
def test_constructor_refuses_inconsistent_index_arrays(arrays, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        sp.ExchangeGraph(**{**ONE_EDGE_ARRAYS, **arrays})


def test_a_scan_size_that_is_no_integer_numerator_is_refused_not_truncated():
    g = sp.ExchangeGraph(**{**ONE_EDGE_ARRAYS, "size_num": ([1.5], [1])})
    with pytest.raises(sp.ValidationError, match=r"^expected integer numerators, got 1\.5$"):
        sp.comm_cost(g, sp.full_bidirectional(g))


def test_side_lookups_refuse_a_third_side(double_star):
    with pytest.raises(sp.ValidationError, match="^robot side must be 1 or 2, got 3$"):
        double_star.side_vids(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, side: g.side_vids(side),
        lambda g, side: sp.monolog(g, side),
        lambda g, side: sp.check_ghc(g, sp.Objective.p1(), side),
        lambda g, side: sp.check_hall_uniform(g, side),
    ],
    ids=["side-vids", "monolog", "check-ghc", "check-hall-uniform"],
)
def test_a_side_is_an_integer_equal_to_1_or_2(double_star, call):
    # a float, a bool or a string was a bare TypeError or, for True, side 1
    for side, shown in ((1.0, "1.0"), (2.0, "2.0"), (True, "True"), ("1", "'1'"), (None, "None")):
        with pytest.raises(sp.ValidationError, match=f"^robot side must be 1 or 2, got {re.escape(shown)}$"):
            call(double_star, side)
    # a numpy integer is a side
    assert call(double_star, np.int64(2)) == call(double_star, 2)


def test_edge_lookups_outside_the_candidate_set(double_star):
    with pytest.raises(sp.UnknownVertex, match="^no edge 1:1--2:1 in graph$"):
        double_star.edge_cost((sp.VertexId(1, 1), sp.VertexId(2, 1)))
    empty = sp.build_graph([], [], [])
    keys = [(sp.VertexId(1, 0), sp.VertexId(2, 0)), None]
    assert empty.edge_positions(keys).tolist() == [-1, -1]
    with pytest.raises(sp.UnknownVertex, match="^no edge 1:0--2:0 in graph$"):
        empty.edge_cost(keys[0])


def test_effective_weight_p1_sides():
    # side 1 pays alpha2 per unit of incident cost, side 2 alpha1
    g = sp.build_graph([1, 1], [1], [(0, 0, 3), (1, 0, 5)])
    obj = sp.Objective.p1(7, 2)
    assert effective_weight(g, sp.VertexId(1, 0), obj) == 2 * 3
    assert effective_weight(g, sp.VertexId(2, 0), obj) == 7 * 8


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_weight_numerators_are_in_lowest_terms(rng):
    g = random_graph(rng, rational_costs=True)
    a1, a2, omega = (random_fraction(rng) for _ in range(3))
    for obj in (sp.Objective.p1(a1, a2), sp.Objective.p2(), sp.Objective.p3(a1, a2, omega)):
        weight, den = weight_numerators(g, obj)
        assert math.gcd(den, *weight[0], *weight[1]) == 1
        for vids, numerators in zip(g.vids, weight):
            assert [Fraction(w, den) for w in numerators] == [effective_weight(g, vid, obj) for vid in vids]


# -- serialization ---------------------------------------------------------


def test_round_trip_identity(double_star):
    text = sp.dumps_graph(double_star)
    again = sp.loads_graph(text)
    assert sp.dumps_graph(again) == text
    assert again.edge_keys() == double_star.edge_keys()


def test_round_trip_preserves_exotic_rationals():
    g = sp.build_graph(
        [Fraction(1, 3), Fraction(1, 10)],
        [Fraction(7, 2)],
        [(0, 0, Fraction(2, 7)), (1, 0, 1)],
        v1_inertia={0: Fraction(5, 6)},
    )
    again = sp.loads_graph(sp.dumps_graph(g))
    assert again.vertex(sp.VertexId(1, 0)).scan_size == Fraction(1, 3)
    assert again.vertex(sp.VertexId(1, 0)).inertia == Fraction(5, 6)
    assert again.vertex(sp.VertexId(1, 1)).scan_size == Fraction(1, 10)
    assert again.edge_cost((sp.VertexId(1, 0), sp.VertexId(2, 0))) == Fraction(2, 7)


def test_decimal_strings_parse_exactly():
    text = """
    {"v1": [{"id": 0, "scan_size": 0.1}],
     "v2": [{"id": 0, "scan_size": 2.5}],
     "edges": [{"u": 0, "v": 0, "cost": 0.3}]}
    """
    g = sp.loads_graph(text)
    assert g.vertex(sp.VertexId(1, 0)).scan_size == Fraction(1, 10)
    assert g.edge_cost((sp.VertexId(1, 0), sp.VertexId(2, 0))) == Fraction(3, 10)


def test_edge_cost_defaults_to_one():
    text = '{"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}]}'
    g = sp.loads_graph(text)
    assert g.edge_cost((sp.VertexId(1, 0), sp.VertexId(2, 0))) == 1


def test_malformed_json_raises_format_error():
    with pytest.raises(sp.GraphFormatError):
        sp.loads_graph("{not json")
    with pytest.raises(sp.GraphFormatError):
        sp.loads_graph('{"v1": 3, "v2": [], "edges": []}')
    with pytest.raises(sp.GraphFormatError):
        sp.loads_graph("[1, 2, 3]")
    # ids and endpoints must be JSON integers, never truncated to one
    edge = '"edges": [{"u": %s, "v": %s}]'
    for v1_id, u in (("1.5", "1"), ("true", "1"), ("1", "1.5"), ("1", "true"), ("1", '"1"')):
        text = '{"v1": [{"id": %s, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], %s}' % (
            v1_id,
            edge % (u, 0),
        )
        with pytest.raises(sp.GraphFormatError):
            sp.loads_graph(text)
    with pytest.raises(sp.GraphFormatError):
        sp.loads_graph(
            '{"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], '
            + edge % (0, "false")
            + "}"
        )


def test_format_rational_tokens():
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(7, 2)) == "3.5"
    assert format_rational(Fraction(1, 10)) == "0.1"
    assert format_rational(Fraction(-3, 8)) == "-0.375"
    assert format_rational(Fraction(1, 3)) == "1/3"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_round_trip_identity_property(data):
    n1 = data.draw(st.integers(1, 4))
    n2 = data.draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n1) for j in range(n2)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    frac = st.fractions(min_value=0, max_value=20, max_denominator=9)
    w1 = [data.draw(frac) for _ in range(n1)]
    w2 = [data.draw(frac) for _ in range(n2)]
    edges = [(i, j, data.draw(frac)) for i, j in chosen]
    g = build_quiet(w1, w2, edges)
    again = sp.loads_graph(sp.dumps_graph(g))
    assert sp.dumps_graph(again) == sp.dumps_graph(g)
    assert again.edge_keys() == g.edge_keys()
    for vid in g.vertex_ids:
        assert again.vertex(vid).scan_size == g.vertex(vid).scan_size


def test_graphs_hold_no_duplicate_or_cross_side_ids():
    with pytest.raises(sp.ValidationError):
        sp.ExchangeGraph.from_vertices([(0, 1, None), (0, 2, None)], [(0, 1, None)], [(0, 0, 1)])


def seed_format_rational(f: Fraction) -> str:
    """Frozen reference: the original one-division-per-factor loop."""
    den = f.denominator
    if den == 1:
        return str(f.numerator)
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@settings(max_examples=400, deadline=None)
@given(
    st.integers(-(10**30), 10**30),
    st.integers(0, 80),
    st.integers(0, 80),
    st.sampled_from([1, 1, 3, 7, 9, 11, 2**61 - 1]),
)
def test_format_rational_matches_seed(num, twos, fives, rest):
    f = Fraction(num, 2**twos * 5**fives * rest)
    assert format_rational(f) == seed_format_rational(f)


def seed_rational_texts(nums, den, bounded=False):
    """Frozen reference: the printer of ``dumps_graph`` and ``format_trace``
    when it learned the decimal places of each denominator by printing
    ``1/q`` and printed each decimal through ``format_rational``, which
    refused one past the int-to-str limit."""
    limit = 10**500
    max_bits = limit.bit_length()

    def unprintable():
        return sp.ValidationError(
            f"value too long to print: a number in it has more than {sys.get_int_max_str_digits()} digits"
        )

    def printed(f):
        # format_rational then: seed_format_rational's text, with the twos
        # counted from the low bit and the fives by bisection
        try:
            den = f.denominator
            if den == 1:
                return str(f.numerator)
            twos = fives = 0
            if not den & 1:
                twos = (den & -den).bit_length() - 1
                den >>= twos
            if den % 5 == 0:
                powers = [5]
                while den % powers[-1] == 0:
                    powers.append(powers[-1] ** 2)
                for k in reversed(range(len(powers) - 1)):
                    if den % powers[k] == 0:
                        den //= powers[k]
                        fives += 1 << k
            if den != 1:
                return f"{f.numerator}/{f.denominator}"
            digits = max(twos, fives)
            scaled = f.numerator * 5 ** (digits - fives) << (digits - twos)
            sign = "-" if scaled < 0 else ""
            text = str(abs(scaled)).rjust(digits + 1, "0")
            return f"{sign}{text[:-digits]}.{text[-digits:]}"
        except ValueError:
            raise unprintable() from None

    def decimal_scale(q):
        one = printed(Fraction(1, q))
        if "/" in one:
            return None
        digits = len(one) - 2 if "." in one else 0
        return digits, 10**digits // q

    def bounded_ratio(p, q):
        if p.bit_length() <= max_bits and q.bit_length() <= max_bits:
            text = f"{p}/{q}"
            if len(text) - 1 <= 500:
                return text
        raise sp.ValidationError(f"value {_shown(Fraction(p, q), str)} has no exact text of at most 500 digits")

    texts, scales = {}, {}
    for num in set(nums):
        common = math.gcd(num, den)
        p, q = num // common, den // common
        if q not in scales:
            scales[q] = decimal_scale(q) if not bounded or q.bit_length() <= max_bits else None
        scale = scales[q]
        if scale is not None and (not bounded or scale[0] < 500 and p * scale[1] < limit):
            texts[num] = printed(Fraction(num, den))
        elif bounded:
            texts[num] = bounded_ratio(p, q)
        else:
            try:
                texts[num] = f"{p}/{q}"
            except ValueError:
                raise unprintable() from None
    return texts


def _printed(call, *args):
    """What ``call(*args)`` gives: its value, or its error's class and text."""
    try:
        return call(*args)
    except sp.ScanPlanError as exc:
        return type(exc), str(exc)


# exponents of 2 and 5 near the bounds: 500 digits after the point, a
# 500-digit p/q, a 4300-digit decimal (5**6152), and a 4300-digit q
_NEAR_BOUNDS = st.one_of(
    st.integers(0, 12),
    st.integers(495, 505),
    st.integers(1655, 1667),
    st.integers(6140, 6165),
    st.integers(14270, 14300),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda m, k, twos, fives: m * 10**k * 2**twos * 5**fives,
            st.integers(-(10**6), 10**6),
            st.sampled_from([0, 1, 2, 490, 495, 499, 500, 501, 4290, 4299, 4300, 4305]),
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=6,
    ),
    _NEAR_BOUNDS,
    _NEAR_BOUNDS,
    st.sampled_from([1, 1, 1, 3, 7, 2**61 - 1]),
)
# at the bounds of a file's text: 500 and 501 places, integers of 500 and
# 501 digits, and p/q texts of 500 and 501 digits
@example(nums=[1, 3 * 2**499], twos=500, fives=0, rest=1)
@example(nums=[10**500 - 1, 10**500], twos=0, fives=0, rest=1)
@example(nums=[10**250 - 1, 10**251 - 1], twos=249, fives=249, rest=7)
def test_rational_texts_match_the_seed_printer(nums, twos, fives, rest):
    den = 2**twos * 5**fives * rest
    nums = [*nums, 0, den, -den, den // 2]
    sizes = [abs(num) for num in nums]
    texts = {}
    for size, num in zip(sizes, nums):
        # bounded, as dumps_graph prints a graph's values, all >= 0
        assert _printed(_rational_texts, [size], den, True) == _printed(seed_rational_texts, [size], den, True)
        # unbounded, as the trace prints: the seed's text or refusal, but a
        # refused value whose p/q prints is now that p/q
        got, seed = _printed(_rational_texts, [num], den), _printed(seed_rational_texts, [num], den)
        if isinstance(seed, dict) or isinstance(got, tuple):
            assert got == seed
        else:
            common = math.gcd(num, den)
            assert got == {num: f"{num // common}/{den // common}"}
        assert _printed(format_rational, Fraction(num, den)) == (got[num] if isinstance(got, dict) else got)
        texts.update(got if isinstance(got, dict) else {})
    # many numerators over one denominator print as each does alone
    assert _printed(_rational_texts, sizes, den, True) == _printed(seed_rational_texts, sizes, den, True)
    whole = _printed(_rational_texts, nums, den)
    if len(texts) == len(set(nums)):
        assert whole == texts
    else:
        assert isinstance(whole, tuple)


def test_a_decimal_past_the_int_to_str_limit_prints_as_its_ratio():
    # the decimal of 1 / 2**10000 has 10000 places and 6990 digits of
    # 5**10000; its p/q has 3013 characters
    assert format_rational(Fraction(1, 2**10000)) == f"1/{2**10000}"
    trace = sp.run_rendezvous(_one_edge(), sp.RendezvousConfig(metadata_bytes_per_vertex=Fraction(1, 2**10000)))
    assert f"metadata robot1 broker 1/{2**10000} meta[1]\n" in sp.format_trace(trace)
    # a p/q past the limit is still refused
    with pytest.raises(sp.ValidationError, match="^value too long to print: a number in it has more than 4300 digits$"):
        format_rational(Fraction(1, 2**20000))


def test_the_ratio_fallback_follows_the_interpreters_limit():
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        # 5**1500 has 1049 digits and 2**1500 has 452
        assert format_rational(Fraction(3, 2**1500)) == f"3/{2**1500}"
        assert _rational_texts([3, 2**1499], 2**1500) == {3: f"3/{2**1500}", 2**1499: "0.5"}
        # 2**2200 has 663 digits
        with pytest.raises(sp.ValidationError, match="^value too long to print: a number in it has more than 640 digits$"):
            format_rational(Fraction(3, 2**2200))
    finally:
        sys.set_int_max_str_digits(saved)


def test_format_rational_long_decimals():
    # one division per factor took 0.72 s here; counting the twos from the
    # low bit and the fives by bisection takes milliseconds
    assert format_rational(Fraction(1, 10**20000)) == "0." + "0" * 19999 + "1"
    assert format_rational(Fraction(-7, 2**5000 * 5**7)) == seed_format_rational(Fraction(-7, 2**5000 * 5**7))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"v1": ["x"], "v2": [], "edges": []}', "v1[0] must be an object"),
        ('{"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}, 3], "edges": []}', "v2[1] must be an object"),
        ('{"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}, [0, 0]]}', "edges[1] must be an object"),
        ('{"v1": [], "v2": [], "edges": {"u": 0}}', "'edges' must be an array"),
    ],
)
def test_malformed_entry_names_the_field(text, message):
    with pytest.raises(sp.GraphFormatError, match=f"^{re.escape(message)}$"):
        sp.loads_graph(text)


def test_non_object_after_malformed_object_reports_the_first():
    # the missing scan_size of v1[0] comes before the string at v1[1]
    with pytest.raises(sp.GraphFormatError, match="^malformed graph file: KeyError"):
        sp.loads_graph('{"v1": [{"id": 0}, "x"], "v2": [], "edges": []}')


VERTEX = '{"id": 0, "scan_size": 1}'


def _document(v1: str = VERTEX, v2: str = VERTEX, edges: str = '{"u": 0, "v": 0}', order=None) -> str:
    """A graph document with the given entry texts, the fields in the given
    key order."""
    fields = {"v1": f'"v1": [{v1}]', "v2": f'"v2": [{v2}]', "edges": f'"edges": [{edges}]'}
    return "{" + ", ".join(fields[key] for key in order or fields) + "}"


# (document with two faults, the message of the one that comes first in
# file order: v1, v2, then edges; in a vertex the id, scan_size, then
# inertia; in an edge u, v, then cost; whatever the order of the keys)
TWO_FAULTS = {
    "id before scan_size": (_document('{"scan_size": true, "id": "x"}'), "expected an integer, got 'x'"),
    "scan_size before inertia": (
        _document('{"inertia": null, "id": 0, "scan_size": "1/0", "inertia": []}'),
        "cannot parse number '1/0'",
    ),
    "missing scan_size before a later entry": (
        _document('{"id": 0}, 3'),
        "malformed graph file: KeyError('scan_size')",
    ),
    "v1 before v2": (
        _document('{"id": 0, "scan_size": "x"}', '{"id": 1.5, "scan_size": 1}'),
        "cannot parse number 'x'",
    ),
    "v1 before v2, keys reversed": (
        _document('{"id": 0, "scan_size": null}', '{"id": true, "scan_size": 1}', order=("edges", "v2", "v1")),
        "expected a number, got None",
    ),
    "v2 before edges": (
        _document(v2='{"id": 0, "scan_size": 1, "inertia": false}', edges='{"u": "0", "v": 0}'),
        "expected a number, got False",
    ),
    "missing v2 before edges": (
        '{"v1": [{"id": 0, "scan_size": 1}], "edges": [{"u": true, "v": 0}]}',
        "malformed graph file: KeyError('v2')",
    ),
    "u before v": (_document(edges='{"cost": 1, "v": "1", "u": 0.5}'), "expected an integer, got '0.5'"),
    "v before cost": (_document(edges='{"u": 0, "v": [], "cost": {}}'), "expected an integer, got []"),
    "an edge before the next": (
        _document(edges='{"u": 0, "v": 0, "cost": "1e600"}, {"v": 0}'),
        "number 1e600 exceeds 500 digits or a decimal exponent of 500",
    ),
    "a value before an entry that is not an object": (
        _document(edges='{"u": 0, "v": 0, "cost": {}}, 7'),
        "cannot interpret {} as a number",
    ),
    "an entry that is not an object before a missing key": (
        _document(VERTEX + ', [], {"id": 2}'),
        "v1[1] must be an object",
    ),
    "v2 not an array before a bad edge": (
        '{"v1": [{"id": 0, "scan_size": 1}], "v2": {}, "edges": [{"u": "x", "v": 0}]}',
        "'v2' must be an array",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_the_first_of_two_faults_in_file_order_is_named(case):
    text, message = TWO_FAULTS[case]
    with pytest.raises(sp.GraphFormatError, match=f"^{re.escape(message)}$"):
        sp.loads_graph(text)


# what a mutant puts in place of a value
MUTANT_VALUES = [True, None, "x", "1/0", "1e600", -1, "1.5", [], {}]


def _fuzz_documents(rng: random.Random) -> list[dict]:
    """Small graph documents with ids with gaps, and scan sizes, inertia
    prices and edge costs as ints, decimals and ``"p/q"`` strings."""
    numbers = [0, 3, 12, 2.5, 0.125, 10.75, "1/3", "7/6", "0.5", "22/7"]
    docs = []
    for _ in range(4):
        ids = [sorted(rng.sample(range(12), rng.randint(1, 3))) for _ in range(2)]
        sides = [[{"id": i, "scan_size": rng.choice(numbers)} for i in side] for side in ids]
        for entry in sides[0] + sides[1]:
            if rng.random() < 0.4:
                entry["inertia"] = rng.choice(numbers)
        pairs = rng.sample([(u, v) for u in ids[0] for v in ids[1]], rng.randint(1, 3))
        edges = [{"u": u, "v": v} for u, v in pairs]
        for entry in edges:
            if rng.random() < 0.7:
                entry["cost"] = rng.choice(numbers)
        docs.append({"v1": sides[0], "v2": sides[1], "edges": edges})
    return docs


def _mutations(doc: dict) -> list[tuple]:
    """Each ``(path, slot, value)`` that deletes one key or array entry of
    ``doc`` (``value`` "delete"), or puts one of ``MUTANT_VALUES`` in its
    place."""
    paths = [(), *((key,) for key in doc), *((key, k) for key in doc for k in range(len(doc[key])))]
    slots = []
    for path in paths:
        container = _at(doc, path)
        slots += [(path, slot) for slot in (list(container) if type(container) is dict else range(len(container)))]
    return [(path, slot, value) for path, slot in slots for value in ["delete", *MUTANT_VALUES]]


def _mutated(doc: dict, mutations) -> dict:
    """A copy of ``doc`` with the given mutations made in order; one that an
    earlier one leaves no place for is skipped."""
    mutant = json.loads(json.dumps(doc))
    for path, slot, value in mutations:
        with contextlib.suppress(KeyError, IndexError, TypeError):
            if value == "delete":
                del _at(mutant, path)[slot]
            else:
                _at(mutant, path)[slot] = copy.deepcopy(value)
    return mutant


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _outcome(text: str):
    """``loads_graph(text)`` as data: the graph's columns and the warnings
    it issued, or the error's class and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = sp.loads_graph(text)
        except sp.ScanPlanError as exc:
            return type(exc).__name__, str(exc)
    columns = (g.ids, g.den, g.size_num, g.inertia_num, g.cost_num, g.eu.tolist(), g.ev.tolist(), g.pruned)
    return columns, [str(w.message) for w in caught]


def _fuzz_outcomes() -> list:
    """The outcomes of single and paired mutants of :func:`_fuzz_documents`,
    each as a reindented and as a compact text."""
    rng = random.Random(34)
    outcomes = []
    for doc in _fuzz_documents(rng):
        mutations = _mutations(doc)
        mutants = [[m] for m in mutations] + [rng.sample(mutations, 2) for _ in range(len(mutations) // 2)]
        for mutant in map(functools.partial(_mutated, doc), mutants):
            for text in (json.dumps(mutant, indent=2), json.dumps(mutant, separators=(",", ":"))):
                assert graph._dumped_graph(text) is None  # JSON-only texts
                outcomes.append(_outcome(text))
    return outcomes


def test_json_documents_read_as_before():
    # the digest was recorded on the two-pass reader (a columnar read, then a
    # walk to name a fault) that the one walk in file order replaced
    outcomes = _fuzz_outcomes()
    assert len(outcomes) == 3060
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "1980d04da830f21cab81d0dc0cdcb095b9c6126c85b88e89996c574d89d3d535"


def test_non_integer_index_message_is_clipped():
    # the message repeated the value and both ends whole: 10,037 characters
    with pytest.raises(sp.IndexOutOfRange) as caught:
        sp.build_graph([1], [1], [(0, "x" * 5000)])
    x20 = "x" * 20
    assert str(caught.value) == f"edge (0, {x20}...) has a non-integer index '{'x' * 19}..."


def test_numpy_scalars_are_read_exactly():
    # as_fraction refused numpy scalars, though Trajectory and _index took them
    plain = sp.build_graph([3, 1.5], [2], [(0, 0, 4), (1, 0, 0.25)])
    numpy = sp.build_graph(
        [np.int64(3), np.float32(1.5)], [np.uint8(2)], [(0, 0, np.int64(4)), (1, 0, np.float64(0.25))]
    )
    assert sp.dumps_graph(numpy) == sp.dumps_graph(plain)
    assert sp.Objective.p1(np.int64(2), np.float32(0.5)) == sp.Objective.p1(2, Fraction(1, 2))
    assert as_fraction(np.float32(0.1)) == Fraction(float(np.float32(0.1)))
    # numpy 2 shows these as np.True_ and np.float32(inf), numpy 1 as True and inf
    for value, message in (
        (np.bool_(True), f"cannot interpret {np.bool_(True)!r} as a number"),
        (np.float32("inf"), f"non-finite value {np.float32('inf')!r}"),
    ):
        with pytest.raises(sp.ValidationError, match=f"^{re.escape(message)}$"):
            as_fraction(value)


BIG = 10**5000  # past the interpreter's 4300-digit int-to-str limit


def _one_edge():
    return sp.build_graph([1], [1], [(0, 0, 1)])


def _long_scan_session():
    """The trace and the strategy rows of a P2 session that sends a scan of
    BIG / 3 bytes."""
    g = sp.build_graph([Fraction(BIG, 3)], [10 * BIG], [(0, 0)])
    cfg = sp.RendezvousConfig(objective=sp.Objective.p2())
    return sp.run_rendezvous(g, cfg), sp.compare_strategies(g, cfg)


def _long_metadata_session():
    """The trace and the strategy rows of a session whose metadata legs
    carry BIG bytes per vertex."""
    cfg = sp.RendezvousConfig(metadata_bytes_per_vertex=BIG)
    return sp.run_rendezvous(_one_edge(), cfg), sp.compare_strategies(_one_edge(), cfg)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: sp.RendezvousConfig(ground_truth_closures={((1, BIG),)}), sp.ValidationError),
        (lambda: sp.build_graph([1], [1], [(Fraction(BIG, 3), 0)]), sp.IndexOutOfRange),
        (lambda: sp.build_graph([1], [1], [(BIG, 0)]), sp.IndexOutOfRange),
        (lambda: sp.ExchangeGraph.from_vertices([(0, 1, None)], [(0, 1, None)], [(BIG, 0, 1)]), sp.IndexOutOfRange),
        (lambda: as_fraction([BIG]), sp.ValidationError),
        (lambda: sp.Policy.from_labels({sp.VertexId(1, 0): BIG}), sp.ValidationError),
        (lambda: _one_edge().edge_cost((sp.VertexId(1, BIG), sp.VertexId(2, 0))), sp.UnknownVertex),
        (lambda: _one_edge().vertex(sp.VertexId(1, BIG)), sp.UnknownVertex),
        (
            lambda: sp.run_rendezvous(
                _one_edge(), sp.RendezvousConfig(ground_truth_closures={(sp.VertexId(1, 0), sp.VertexId(2, BIG))})
            ),
            sp.GroundTruthOutsideCandidates,
        ),
        (lambda: sp.build_graph([-BIG], [1], [(0, 0)]), sp.NegativeWeight),
        (lambda: sp.Objective("p1", alpha1=-BIG), sp.ValidationError),
        # printed values: a decimal of 1 / 2**20000 has 13980 digits
        (lambda: format_rational(Fraction(1, 2**20000)), sp.ValidationError),
        (lambda: format_rational(Fraction(BIG, 3)), sp.ValidationError),
        (lambda: sp.format_trace(_long_scan_session()[0]), sp.ValidationError),
        (lambda: sp.strategy_table_csv(_long_scan_session()[1]), sp.ValidationError),
        (lambda: sp.format_trace(_long_metadata_session()[0]), sp.ValidationError),
        (lambda: sp.strategy_table_csv(_long_metadata_session()[1]), sp.ValidationError),
    ],
    ids=[
        "closure-shape", "fraction-end", "int-end", "from-vertices-end", "as-fraction", "policy-bit",
        "edge-cost", "vertex", "ground-truth", "negative-size", "objective-parameter",
        "format-rational-decimal", "format-rational-ratio", "trace-scan", "strategy-table-scan",
        "trace-metadata", "strategy-table-metadata",
    ],
)
def test_refusal_of_an_unprintable_value_keeps_its_class(call, error):
    # each message used to raise a bare ValueError while printing the value
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert len(str(caught.value)) < 300


def _pose(**kwargs):
    return make_pose(0, 0.0, 0.0, 0.0, **kwargs)


def _distinct_weights(n):
    return sp.build_graph(list(range(1, n + 1)), [1] * n, [(i, i) for i in range(n)])


@pytest.mark.parametrize(
    "call, error, named",
    [
        # a value past the int-to-str limit, or thousands of characters long
        (lambda: sp.AppearanceParams(alpha=Fraction(BIG)), sp.ValidationError, "alpha"),
        (lambda: SweepSpec("dmax", BIG, 0, 1), sp.ValidationError, "sweep start"),
        (lambda: sp.solve_uniform_matching(_distinct_weights(3000)), sp.NonUniformWeights, "(2992 more)"),
        (lambda: _one_edge().vertex(sp.VertexId(1, 10**4000)), sp.UnknownVertex, "vertex 1:1000"),
        (lambda: sp.Objective("p1", alpha1=-(10**4000)), sp.ValidationError, "alpha1"),
        (lambda: sp.GeometryParams(d_max=1, eta=0, rate_divisor=-(10**4000)), sp.ValidationError, "rate_divisor"),
        # a gate value that is not a number, or is beyond the float range
        (lambda: sp.GeometryParams(d_max="3", eta=0), sp.ValidationError, "d_max must be finite, got '3'"),
        (lambda: sp.GeometryParams(d_max=None, eta=0), sp.ValidationError, "d_max must be finite, got None"),
        (lambda: sp.AppearanceParams(alpha="0.5"), sp.ValidationError, "alpha must lie in [0, 1], got '0.5'"),
        (lambda: sp.AppearanceParams(alpha=None), sp.ValidationError, "alpha must lie in [0, 1], got None"),
        (lambda: sp.fov_overlap(_pose(), _pose(), 0.7, "30"), sp.ValidationError, "fov_range must be finite"),
        (lambda: sp.GeometryParams(d_max=10**400, eta=0), sp.ValidationError, "d_max must be finite"),
        (lambda: sp.fov_overlap(_pose(), _pose(), 10**400, 30), sp.ValidationError, "fov_half_angle must be finite"),
        (
            lambda: sp.Trajectory([_pose(feature_count=Fraction(BIG, 3))]),
            sp.ValidationError,
            "non-integral feature count",
        ),
        # an API vertex id beyond the file format's 500-digit bound
        (
            lambda: sp.ExchangeGraph.from_vertices([(BIG, 1, None)], [(0, 1, None)], [(BIG, 0, 1)]),
            sp.IndexOutOfRange,
            "exceeds 500 digits",
        ),
        (
            lambda: sp.ExchangeGraph.from_vertices([(10**600, 1, None)], [(0, 1, None)], [(10**600, 0, 1)]),
            sp.IndexOutOfRange,
            "exceeds 500 digits",
        ),
    ],
    ids=[
        "alpha-fraction", "sweep-start", "non-uniform-weights", "vertex", "objective-parameter", "rate-divisor",
        "d_max-text", "d_max-none", "alpha-text", "alpha-none", "fov-range-text", "d_max-past-float",
        "fov-half-angle-past-float", "feature-count-fraction", "id-past-int-to-str", "id-of-601-digits",
    ],
)
def test_refusal_of_an_outside_value_is_short_and_keeps_its_class(call, error, named):
    # each used to escape as a bare TypeError, OverflowError or ValueError,
    # or to repeat the value whole in a message of thousands of characters
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert named in str(caught.value)
    assert len(str(caught.value)) < 300


def test_gate_values_refused_before_keep_their_messages():
    for call, message in (
        (lambda: sp.GeometryParams(d_max=1, eta=0, fov_range=np.float64("nan")), "fov_range must be finite, got nan"),
        (lambda: sp.GeometryParams(d_max=0, eta=0), "d_max must be positive, got 0"),
        (lambda: sp.GeometryParams(d_max=1, eta=1.5), "eta must lie in [0, 1], got 1.5"),
        (lambda: sp.AppearanceParams(alpha=float("nan")), "alpha must lie in [0, 1], got nan"),
        (lambda: sp.AppearanceParams(alpha=Fraction(3, 2)), "alpha must lie in [0, 1], got 3/2"),
    ):
        with pytest.raises(sp.ValidationError, match=f"^{re.escape(message)}$"):
            call()


def test_vertex_id_of_500_digits_round_trips():
    top = 10**500 - 1
    g = sp.ExchangeGraph.from_vertices([(top, 1, None)], [(0, 1, None)], [(top, 0, 1)])
    text = sp.dumps_graph(g)
    assert sp.dumps_graph(sp.loads_graph(text)) == text
    assert sp.loads_graph(text).ids == ((top,), (0,))
    assert str(g.vids[0][0]) == f"1:{top}"


def test_dumps_graph_writes_only_what_loads_graph_reads_back():
    # the plain decimal within the number bounds, else the reduced "p/q"
    for value, text in (
        (Fraction(1, 2**499), format_rational(Fraction(1, 2**499))),  # 500 digits
        (Fraction(1, 2**500), f'"1/{2**500}"'),
        (5e-324, f'"1/{2**1074}"'),
        (10**500 - 1, str(10**500 - 1)),
        (Fraction(10**400, 3**80), f'"{10**400}/{3**80}"'),
    ):
        g = build_quiet([value], [1], [(0, 0)])
        dumped = sp.dumps_graph(g)
        assert f'"scan_size": {text}}}' in dumped
        assert sp.loads_graph(dumped).v1 == g.v1 and sp.dumps_graph(sp.loads_graph(dumped)) == dumped
    # else a refusal; 10**5000 is past the int-to-str limit, which raised a bare ValueError
    for value in (10**500, 10**600, Fraction(10**5000, 3), Fraction(10**400, 3**220)):
        with pytest.raises(sp.ValidationError, match="has no exact text of at most 500 digits$") as caught:
            sp.dumps_graph(build_quiet([value], [1], [(0, 0)]))
        assert type(caught.value) is sp.ValidationError and len(str(caught.value)) < 300


# -- graph-file ingest against a Fraction-per-value oracle ----------------------

_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def ratio_texts(draw) -> str:
    """A "p/q" string: plain or unreduced, signed, padded, with underscores
    or Arabic-Indic digits, or with a zero denominator."""
    p, q, k = draw(st.integers(0, 10**6)), draw(st.integers(0, 60)), draw(st.sampled_from([1, 7, 12]))
    text = f"{p * k}/{q * k}"
    form = draw(st.sampled_from(["plain", "plain", "signed", "padded", "underscore", "arabic"]))
    if form == "signed":
        text = draw(st.sampled_from("-+")) + text
    elif form == "padded":
        text = f" {text} "
    elif form == "underscore":
        text = text.replace("/", "_0/", 1)
    elif form == "arabic":
        text = text.translate(_ARABIC_INDIC)
    return json.dumps(text)


# JSON tokens of graph-file values
VALUE_TOKENS = st.one_of(
    st.integers(-2, 10**9).map(str),
    st.builds("{}.{}".format, st.integers(-2, 999), st.integers(0, 99_999)),
    st.decimals(0, 10**4, places=3).map(lambda d: json.dumps(str(d))),
    ratio_texts(),
    ratio_texts(),
    st.sampled_from(['"1e3"', "2.5e-3", "0", '"7"', '"x/0"']),
)


@st.composite
def graph_documents(draw, positional: bool = False) -> str:
    """A graph file with ids in shuffled, non-contiguous order, or with
    ``positional`` each side's ids ``0..n-1`` in order; costs and inertia
    prices that are sometimes missing, and now and then an edge end that no
    vertex holds."""
    if positional:
        ids = [list(range(draw(st.integers(0, 5)))) for _ in range(2)]
    else:
        ids = [draw(st.lists(st.integers(0, 40), unique=True, max_size=5)) for _ in range(2)]
    sides = []
    for side in ids:
        entries = []
        for i in side:
            price = f', "inertia": {draw(VALUE_TOKENS)}' if draw(st.booleans()) else ""
            entries.append(f'{{"id": {i}, "scan_size": {draw(VALUE_TOKENS)}{price}}}')
        sides.append(", ".join(entries))
    missing = st.sampled_from([41, -1, len(ids[0]), len(ids[1])])
    ends = [st.sampled_from(side) | missing if side else missing for side in ids]
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        cost = f', "cost": {draw(VALUE_TOKENS)}' if draw(st.booleans()) else ""
        edges.append(f'{{"u": {draw(ends[0])}, "v": {draw(ends[1])}{cost}}}')
    return f'{{"v1": [{sides[0]}], "v2": [{sides[1]}], "edges": [{", ".join(edges)}]}}'


def oracle_graph(text: str) -> sp.ExchangeGraph:
    """The graph of a graph file read value by value: every value through
    ``as_fraction``, all over the least common multiple of their
    denominators."""
    doc = json.loads(text, parse_float=Fraction)

    def exact(value):
        try:
            return as_fraction(value)
        except sp.ValidationError as exc:
            raise sp.GraphFormatError(str(exc)) from None

    ids, sizes, prices = ([], []), ([], []), ([], [])
    for s, key in enumerate(("v1", "v2")):
        for entry in doc[key]:
            ids[s].append(entry["id"])
            sizes[s].append(exact(entry["scan_size"]))
            prices[s].append(exact(entry["inertia"]) if "inertia" in entry else None)
    edges = [(e["u"], e["v"], exact(e.get("cost", 1))) for e in doc["edges"]]
    values = [*sizes[0], *sizes[1], *prices[0], *prices[1], *(c for _, _, c in edges)]
    den = math.lcm(*(x.denominator for x in values if x is not None))
    position = [{i: k for k, i in enumerate(side)} for side in ids]
    for u, v, _ in edges:
        if u not in position[0] or v not in position[1]:
            raise sp.IndexOutOfRange(f"edge ({u}, {v}) references a missing vertex")
    scaled = [[None if x is None else int(x * den) for x in col] for col in (*sizes, *prices)]
    return sp.ExchangeGraph(
        ids,
        den,
        scaled[:2],
        scaled[2:],
        [position[0][u] for u, _, _ in edges],
        [position[1][v] for _, v, _ in edges],
        [int(c * den) for _, _, c in edges],
    )


@settings(max_examples=150, deadline=None)
@given(graph_documents())
def test_loads_graph_matches_a_fraction_per_value_oracle(text):
    check_against_oracle(text)


@settings(max_examples=60, deadline=None)
@given(graph_documents(positional=True))
def test_loads_graph_with_positional_ids_matches_the_oracle(text):
    # each side's ids are 0..n-1 in order, so every end in range is its own position
    check_against_oracle(text)


def check_against_oracle(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            expected = oracle_graph(text)
        except sp.ScanPlanError as exc:
            with pytest.raises(sp.ScanPlanError) as caught:
                sp.loads_graph(text)
            assert (type(caught.value), str(caught.value)) == (type(exc), str(exc))
            return
        g = sp.loads_graph(text)
    assert (g.ids, g.den, g.size_num, g.inertia_num, g.cost_num) == (
        expected.ids,
        expected.den,
        expected.size_num,
        expected.inertia_num,
        expected.cost_num,
    )
    assert (g.eu.tolist(), g.ev.tolist(), g.pruned) == (expected.eu.tolist(), expected.ev.tolist(), expected.pruned)
    assert all(type(x) is int for x in (g.den, *g.size_num[0], *g.size_num[1], *g.cost_num))


@pytest.mark.parametrize(
    "value, message",
    [
        ("1ex", "cannot parse number '1ex'"),
        ("1e5x", "cannot parse number '1e5x'"),
        ("1e0_999", "number 1e0_999 exceeds 500 digits or a decimal exponent of 500"),
    ],
)
def test_number_text_with_a_bad_exponent_is_a_format_error(value, message):
    # "1ex" raised a bare ValueError from the exponent bound: exit 1 in the CLI
    text = '{"v1": [{"id": 0, "scan_size": "%s"}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}]}'
    with pytest.raises(sp.GraphFormatError, match=f"^{re.escape(message)}$"):
        sp.loads_graph(text % value)
    with pytest.raises(sp.ValidationError, match=f"^{re.escape(message)}$"):
        as_fraction(value)


def test_a_boolean_is_not_a_number():
    with pytest.raises(sp.ValidationError, match="^cannot interpret True as a number$"):
        as_fraction(True)


def test_unknown_objective_variant_refused():
    with pytest.raises(sp.ValidationError, match="^unknown objective variant 'p4'$"):
        sp.Objective("p4")


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: sp.build_graph([1], [1], [(0,)]), "edge (0,) is not a (u, v) or (u, v, cost) tuple"),
        (lambda: sp.build_graph([1], [1], [5]), "edge 5 is not a (u, v) or (u, v, cost) tuple"),
        (lambda: sp.build_graph([1], [1], [list(range(10**4))]), "edge [0, 1, 2, 3, 4, 5, 6... is not"),
        (
            lambda: sp.ExchangeGraph.from_vertices([(0, 1)], [(0, 1, None)], [(0, 0, 1)]),
            "side 1 vertex (0, 1) is not an (id, scan_size, inertia) triple",
        ),
        (
            lambda: sp.ExchangeGraph.from_vertices([(0, 1, None)], [None], [(0, 0, 1)]),
            "side 2 vertex None is not an (id, scan_size, inertia) triple",
        ),
        (
            lambda: sp.ExchangeGraph.from_vertices([(0, 1, None)], [(0, 1, None)], [(0, 0)]),
            "edge (0, 0) is not a (u, v, cost) triple",
        ),
        (
            lambda: sp.build_appearance([(0, 0)], [1], [1], sp.AppearanceParams(alpha=0.3)),
            "score entry (0, 0) is not a (u, v, score) triple",
        ),
        (
            lambda: sp.build_appearance([(0, 0, 0.5, 1)], [1], [1], sp.AppearanceParams(alpha=0.3)),
            "score entry (0, 0, 0.5, 1) is not a (u, v, score) triple",
        ),
        (
            lambda: sp.RendezvousConfig(ground_truth_closures=5),
            "ground_truth_closures 5 is not a collection of closures",
        ),
        (lambda: sp.build_graph([1], [1], [(0, 0)], v1_inertia=5), "v1_inertia must be a mapping or None, got 5"),
        (lambda: sp.build_graph([1], [1], [(0, 0)], v2_inertia=[2]), "v2_inertia must be a mapping or None, got [2]"),
        (lambda: sp.build_graph(5, [1], [(0, 0)]), "v1_weights must be iterable, got 5"),
        (lambda: sp.build_graph([1], None, [(0, 0)]), "v2_weights must be iterable, got None"),
        (lambda: sp.build_graph(10**10000, [1], []), "v1_weights must be iterable, got <int of 33220 bits>"),
        (lambda: sp.build_graph([1], [1], 5), "edges must be iterable, got 5"),
        (lambda: sp.ExchangeGraph.from_vertices(5, [], []), "side 1 vertices must be iterable, got 5"),
        (lambda: sp.ExchangeGraph.from_vertices([], 2.5, []), "side 2 vertices must be iterable, got 2.5"),
        (lambda: sp.ExchangeGraph.from_vertices([(0, 1, None)], [(0, 1, None)], 5), "edges must be iterable, got 5"),
        (
            lambda: sp.build_appearance([(0, 0, 0.5), (1, 2, "x")], [1] * 2, [1] * 3, sp.AppearanceParams(alpha=0.3)),
            "score 'x' for pair (1, 2) is not a number",
        ),
        (
            lambda: next(
                sp.build_appearance_sweep([(0, 0, None)], [1], [1], [sp.AppearanceParams(alpha=0.3)])
            ),
            "score None for pair (0, 0) is not a number",
        ),
        (
            lambda: sp.build_appearance([(0, 0, 1j)], [1], [1], sp.AppearanceParams(alpha=0.3)),
            "score 1j for pair (0, 0) is not a number",
        ),
    ],
    ids=[
        "edge-of-one", "edge-not-a-tuple", "edge-of-10000", "vertex-pair", "vertex-none", "from-vertices-edge-pair",
        "score-pair", "score-of-four", "closures-not-a-collection", "inertia-int", "inertia-list", "weights-int",
        "weights-none", "weights-huge-int", "edges-int", "from-vertices-int", "from-vertices-float",
        "from-vertices-edges-int", "score-text", "sweep-score-none", "score-complex",
    ],
)
def test_api_entry_of_the_wrong_shape_is_refused_by_name(call, named):
    # each used to escape as a bare AttributeError, TypeError or ValueError
    with pytest.raises(sp.ValidationError) as caught:
        call()
    assert named in str(caught.value)
    assert len(str(caught.value)) < 300


def _primes(lo, hi):
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for n in range(2, math.isqrt(hi) + 1):
        if sieve[n]:
            sieve[n * n :: n] = False
    return (np.flatnonzero(sieve[lo:]) + lo).tolist()


def _reciprocal_prime_calls(primes):
    """``build_graph`` and ``from_vertices`` on side-1 scan sizes 1/p, one
    edge per vertex: the values' common denominator is their product."""
    n = len(primes)
    sizes = [Fraction(1, p) for p in primes]
    return (
        lambda: sp.build_graph(sizes, [1] * n, [(i, i) for i in range(n)]),
        lambda: sp.ExchangeGraph.from_vertices(
            [(i, w, None) for i, w in enumerate(sizes)], [(i, 1, None) for i in range(n)], [(i, i, 1) for i in range(n)]
        ),
    )


def test_api_graphs_obey_the_common_denominator_bound():
    # the first primes above 10007, as the graph file tests take them: 247
    # give a 1000-digit denominator, 248 one past the bound
    primes = _primes(10008, 25_000)
    for call in _reciprocal_prime_calls(primes[:247]):
        assert len(str(call().den)) == MAX_DENOMINATOR_DIGITS
    for count in (248, 1400):
        for call in _reciprocal_prime_calls(primes[:count]):
            with pytest.raises(sp.ValidationError, match="^the values' common denominator exceeds 1000 digits$"):
                call()


def test_api_common_denominator_bound_refuses_in_linear_time():
    # 32,000 scan sizes 1/p over primes above 10**5; build_graph took the
    # LCM of every denominator, unbounded
    primes = _primes(10**5 + 1, 520_000)[:32_000]
    for call in _reciprocal_prime_calls(primes):
        start = time.perf_counter()
        with pytest.raises(sp.ValidationError, match="common denominator exceeds 1000 digits"):
            call()
        assert time.perf_counter() - start < 2


# -- restriction of an unpruned graph (the sweeps' points) ------------------------

restriction_value = st.one_of(
    st.integers(0, 12),
    st.sampled_from([Fraction(1, 3), Fraction(5, 6), Fraction(7, 4), "2/9", "0.25", 1.5]),
)


def built_with_warnings(build):
    """``build()``'s graph and the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = build()
    return g, [str(w.message) for w in caught]


def assert_restriction_matches_build(w1, w2, pairs, keep):
    from scanplan.graph import _unpruned_graph

    # a sweep's widest graph: unit-cost edges and no inertia prices
    columns = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    widest, issued = built_with_warnings(lambda: _unpruned_graph(w1, w2, columns))
    assert issued == [] and widest.pruned == ()
    got, got_warnings = built_with_warnings(lambda: widest._restricted(np.array(keep, dtype=bool)))
    kept = [e for e, k in zip(pairs, keep) if k]
    want, want_warnings = built_with_warnings(lambda: sp.build_graph(w1, w2, kept))
    for name in ("ids", "den", "size_num", "inertia_num", "cost_num", "pruned"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("eu", "ev"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b) and not a.flags.writeable
    assert got_warnings == want_warnings
    assert sp.dumps_graph(got) == sp.dumps_graph(want)
    assert got._covers == {}
    # the widest graph is left as it was
    assert widest.num_edges == len(pairs) and widest.pruned == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restriction_matches_build_graph_over_kept_edges(data):
    n1, n2 = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    w1 = data.draw(st.lists(restriction_value, min_size=n1, max_size=n1))
    w2 = data.draw(st.lists(restriction_value, min_size=n2, max_size=n2))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, max(n1 - 1, 0)), st.integers(0, max(n2 - 1, 0))), unique=True))
    pairs = pairs if n1 and n2 else []
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    assert_restriction_matches_build(w1, w2, pairs, keep)


@pytest.mark.parametrize("mask", ["all", "none", "first"])
def test_restriction_keeps_all_none_or_one_edge(mask):
    # the only value with a factor 3 in its denominator is the scan size of
    # a vertex that only the last edge touches; every restriction keeps it
    # in the denominator, and keeping no edge prunes every vertex
    w1, w2 = [Fraction(1, 2), 3, Fraction(2, 3)], [Fraction(1, 4), 5]
    pairs = [(0, 0), (1, 1), (2, 0)]
    keep = {"all": [True] * 3, "none": [False] * 3, "first": [True, False, False]}[mask]
    assert_restriction_matches_build(w1, w2, pairs, keep)


@pytest.mark.parametrize("u, v", [(-1, 0), (2, 0), (0, -1), (0, 1), (1, 1)])
def test_positional_ids_refuse_an_end_out_of_range(u, v):
    message = rf"^edge \({u}, {v}\) references a missing vertex$"
    with pytest.raises(sp.IndexOutOfRange, match=message):
        sp.ExchangeGraph.from_vertices([(0, 1, None), (1, 1, None)], [(0, 1, None)], [(0, 0, 1), (u, v, 1)])
    text = json.dumps(
        {
            "v1": [{"id": 0, "scan_size": 1}, {"id": 1, "scan_size": 1}],
            "v2": [{"id": 0, "scan_size": 1}],
            "edges": [{"u": 0, "v": 0}, {"u": u, "v": v}],
        }
    )
    with pytest.raises(sp.IndexOutOfRange, match=message):
        sp.loads_graph(text)


# -- the numpy reader of every file dumps_graph writes -----------------------------


def load_outcome(text: str, reader: bool = True):
    """``loads_graph(text)`` as data: the graph's columns, the types of its
    numbers and the warnings it issued, or the error's class and message.
    With ``reader`` false, the numpy reader declines every text."""
    with pytest.MonkeyPatch.context() as mp:
        if not reader:
            mp.setattr(graph, "_dumped_graph", lambda text: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                g = sp.loads_graph(text)
            except Exception as exc:  # every refusal, compared by class and message
                return type(exc), str(exc)
    numbers = {type(x) for x in (g.den, *chain_all(g.size_num), *chain_all(g.inertia_num), *g.cost_num)}
    arrays = [(a.dtype, a.flags.writeable, a.tolist()) for a in (g.eu, g.ev)]
    warned = [(str(w.message), w.filename) for w in caught]
    return g.ids, g.den, g.size_num, g.inertia_num, g.cost_num, arrays, g.pruned, numbers, warned


def chain_all(columns):
    return [x for column in columns for x in column]


def read_whole(text: str) -> bool:
    """Whether ``loads_graph`` parses ``text`` as JSON rather than in numpy
    passes (and asserts that it gives the same result either way)."""
    assert load_outcome(text) == load_outcome(text, reader=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return graph._dumped_graph(text) is None
        except sp.ScanPlanError:  # read, and refused
            return False


# ids and values at the reader's 18-digit bound and past it
LONG_INTS = [10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1]
READ_IDS = st.one_of(st.integers(0, 30), st.sampled_from(LONG_INTS))
# terminating decimals, up to 18 digits on each side of the point and past it
READ_DECIMALS = st.builds(
    Fraction, st.integers(0, 10**37), st.sampled_from([2, 4, 5, 8, 10, 2**20, 10**18, 10**19, 5**30])
)
# "p/q" values: small, with 18-digit sides, and with coprime 18-digit
# denominators whose common denominator is past int64
READ_RATIOS = st.one_of(
    st.builds(Fraction, st.integers(0, 99), st.sampled_from([3, 7, 9, 11, 13])),
    st.builds(Fraction, st.integers(0, 10**18 - 1), st.integers(1, 10**18 - 1)),
    st.sampled_from([Fraction(1, 10**17 + 3), Fraction(10**18 - 1, 10**17 + 19), Fraction(5, 10**18 + 9)]),
)
READ_SIZES = st.one_of(st.integers(0, 10**6), st.sampled_from(LONG_INTS), READ_DECIMALS, READ_RATIOS)
READ_COSTS = st.one_of(
    st.integers(0, 9), st.integers(0, 10**18 - 1), st.sampled_from(LONG_INTS), READ_DECIMALS, READ_RATIOS
)


@st.composite
def dumped_texts(draw) -> str:
    """``dumps_graph`` of a ``from_vertices`` graph: ids with gaps or
    ``0..n-1``, sizes, prices and costs as ints, decimals or ``"p/q"``, a
    side that may be empty, edges that may be none; now and then an
    isolated side-2 vertex added by hand, which ``loads_graph`` prunes."""
    if draw(st.booleans()):
        ids = [draw(st.lists(READ_IDS, unique=True, max_size=4)) for _ in range(2)]
    else:
        ids = [list(range(draw(st.integers(0, 4)))) for _ in range(2)]
    sides = [[(i, draw(READ_SIZES), draw(st.none() | READ_SIZES)) for i in side] for side in ids]
    pairs = draw(st.lists(st.tuples(*map(st.sampled_from, ids)), unique=True, max_size=6)) if all(ids) else []
    edges = [(u, v, draw(READ_COSTS)) for u, v in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        text = sp.dumps_graph(sp.ExchangeGraph.from_vertices(*sides, edges))
    if draw(st.booleans()):
        entry = '    {"id": 77, "scan_size": "5/3"}' + (",\n" if '"v2": [\n\n' not in text else "")
        text = text.replace('"v2": [\n', '"v2": [\n' + entry, 1)
    return text


@settings(max_examples=150, deadline=None)
@given(dumped_texts())
def test_dumped_files_read_as_the_json_parser_reads_them(text):
    assert read_whole(text) == (re.search(r"\d{19}", text) is not None)


def test_pruning_warning_from_the_edge_reader_names_the_caller():
    integer = sp.dumps_graph(sp.build_graph([1, 1], [1], [(0, 0)]))
    rational = sp.dumps_graph(sp.build_graph(["1/3", "0.5"], [1], [(0, 0, "2/7"), (1, 0, 3)], v1_inertia={0: "5/9"}))
    for text, vertex in (
        (integer, '    {"id": 7, "scan_size": 1},\n'),
        (rational, '    {"id": 7, "scan_size": "1/3", "inertia": 2.5},\n'),
    ):
        assert not read_whole(text)
        text = text.replace('"v1": [\n', '"v1": [\n' + vertex, 1)
        assert not read_whole(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sp.loads_graph(text)
        assert [str(w.message) for w in caught] == ["pruned 1 isolated vertices (no candidate edges): 1:7"]
        assert caught[0].filename == __file__


MUTANT_CHARACTERS = '0123456789 -+.,:{}[]"\n\r\tuvcostdeina/\ufeff\u0661'


def test_mutated_dumped_files_read_as_the_json_parser_reads_them():
    # 19-digit values, a "p/q" scan size, ids with gaps, the smallest file,
    # and "p/q" and decimal values with inertia prices
    texts = [
        sp.dumps_graph(
            sp.ExchangeGraph.from_vertices(
                [(3, 10**18 - 1, None), (40, Fraction(1, 3), 2)],
                [(0, 7, None), (10**18, 1, 5)],
                [(3, 0, 0), (40, 0, 10**17), (3, 10**18, 12)],
            )
        ),
        sp.dumps_graph(sp.build_graph([1, 2, 3], [4, 5], [(0, 0, 1), (1, 1, 20), (2, 0, 300), (2, 1, 0)])),
        sp.dumps_graph(sp.build_graph([1], [1], [(0, 0)])),
        sp.dumps_graph(
            sp.ExchangeGraph.from_vertices(
                [(0, "7/3", "1.25"), (5, "10.5", None)],
                [(2, 4, "2/9"), (3, "0.125", None)],
                [(0, 2, "1/3"), (5, 2, "0.5"), (5, 3, 2)],
            )
        ),
    ]
    assert [read_whole(text) for text in texts] == [True, False, False, False]
    rng = random.Random(32)
    accepted = 0
    for text in texts:
        for _ in range(600):
            at = rng.randrange(len(text) + 1)
            edit = rng.choice(["insert", "delete", "replace"])
            char = rng.choice(MUTANT_CHARACTERS)
            mutant = text[:at] + (char if edit != "delete" else "") + text[at + (edit != "insert") :]
            accepted += not read_whole(mutant)
    # digit changes inside the slots read in numpy passes; any other change
    # to a head declines the whole text
    assert accepted > 30


CANONICAL_HEAD = (
    '"v1": [\n    {"id": 0, "scan_size": 1}\n  ],\n  "v2": [\n    {"id": 0, "scan_size": 1},\n'
    '    {"id": 1, "scan_size": 1}\n  ]'
)


def graph_file(edges: str, head: str = CANONICAL_HEAD) -> str:
    """A graph file in ``dumps_graph``'s layout around the given head
    members and edge lines."""
    return "{\n  " + head + ',\n  "edges": [\n' + edges + "\n  ]\n}\n"


def with_cost(cost: str) -> str:
    """The canonical file with its second edge's cost slot holding ``cost``."""
    return graph_file(CANONICAL_EDGES.replace('"cost": 2', f'"cost": {cost}'))


CANONICAL_EDGES = '    {"u": 0, "v": 0, "cost": 1},\n    {"u": 0, "v": 1, "cost": 2}'
NESTED_MARKER = (
    '"v1": [\n    {"id": 0, "scan_size": 1, "note": {"a": 1,\n  "edges": [\n'
    '    {"u": 0, "v": 0, "cost": 1}\n  ]\n}}\n  ],\n  "v2": [\n    {"id": 0, "scan_size": 1}\n  ]'
)
HEAD_WITH_EDGES = (
    '"edges": [],\n  "v1": [\n    {"id": 0, "scan_size": 1}\n  ],\n  "v2": [\n    {"id": 0, "scan_size": 1},\n'
    '    {"id": 1, "scan_size": 1}\n  ]'
)
# (text, whether loads_graph parses it whole)
ADVERSARIAL_TEXTS = {
    "canonical": (graph_file(CANONICAL_EDGES), False),
    "empty edge list": (graph_file(""), False),
    "18-digit cost": (graph_file('    {"u": 0, "v": 0, "cost": 999999999999999999}'), False),
    "digit outside a slot": (graph_file(CANONICAL_EDGES.replace('"v": 1', '"v1": 1')), True),
    "digit before a slot": (graph_file(CANONICAL_EDGES.replace('"cost": 2', '"cost":2 2')), True),
    "digit at the section start": (graph_file("1" + CANONICAL_EDGES), True),
    "leading zero": (with_cost("02"), True),
    "zero alone": (with_cost("0"), False),
    "19-digit end": (graph_file(CANONICAL_EDGES.replace('"u": 0, "v": 1', f'"u": {10**18}, "v": 1')), True),
    "19-digit cost": (with_cost("9223372036854775808"), True),
    "-1 cost": (with_cost("-1"), True),
    "p/q cost": (with_cost('"1/3"'), False),
    "decimal cost": (with_cost("2.0"), False),
    "Arabic-Indic digit": (with_cost("\u0662"), True),
    "CRLF line ends": (graph_file(CANONICAL_EDGES).replace("\n", "\r\n"), True),
    "reordered keys": (graph_file(CANONICAL_EDGES.replace('"u": 0, "v": 1', '"v": 1, "u": 0')), True),
    "extra key": (graph_file(CANONICAL_EDGES.replace('"cost": 2}', '"cost": 2, "x": 3}')), True),
    "no cost": (graph_file(CANONICAL_EDGES.replace(', "cost": 2}', "}")), True),
    "duplicate edge": (graph_file(CANONICAL_EDGES.replace('"v": 1', '"v": 0')), False),
    "missing vertex": (graph_file(CANONICAL_EDGES.replace('"v": 1', '"v": 5')), False),
    "nested edges marker in v1": (graph_file(CANONICAL_EDGES, NESTED_MARKER), True),
    "edges key in the head": (graph_file(CANONICAL_EDGES, HEAD_WITH_EDGES), True),
    "head not an object": ("[" + graph_file(CANONICAL_EDGES)[1:], True),
    "head with a fault": (graph_file(CANONICAL_EDGES).replace('"scan_size": 1}', '"scan_size": true}', 1), True),
    "BOM": ("\ufeff" + graph_file(CANONICAL_EDGES), True),
    "text after the tail": (graph_file(CANONICAL_EDGES) + " ", True),
    "no trailing newline": (graph_file(CANONICAL_EDGES)[:-1], True),
    "tail only": ('{\n  "v1": [],\n  "v2": [],\n  "edges": [\n  ]\n}\n', True),
    # "p/q" and decimal slots, read or declined
    "p/q with leading zeros": (with_cost('"007/3"'), False),
    "zero denominator": (with_cost('"1/0"'), True),
    "p/q without p": (with_cost('"/3"'), True),
    "two slashes": (with_cost('"1//3"'), True),
    "unterminated p/q": (with_cost('"1/3'), True),
    "decimal without a": (with_cost(".5"), True),
    "decimal without b": (with_cost("5."), True),
    "decimal with a trailing zero": (with_cost("1.50"), False),
    "decimal with a leading zero": (with_cost("01.5"), True),
    "negative p/q": (with_cost('"-1/3"'), True),
    "quoted int": (with_cost('"2"'), True),
    "quoted decimal": (with_cost('"2.5"'), True),
    "unquoted p/q": (with_cost("1/3"), True),
    "decimal with two points": (with_cost("1.2.5"), True),
    "decimal with an exponent": (with_cost("2.5e1"), True),
    "19-digit p": (with_cost(f'"{10**18}/7"'), True),
    "19-digit q": (with_cost(f'"1/{10**18 + 1}"'), True),
    "19-digit decimal side": (with_cost(f"1.{10**18}"), True),
    "p/q in an id slot": (graph_file(CANONICAL_EDGES).replace('"id": 1,', '"id": "1/3",'), True),
    "decimal in an end slot": (graph_file(CANONICAL_EDGES.replace('"v": 1', '"v": 1.0')), True),
    "p/q scan size and price": (
        graph_file(CANONICAL_EDGES).replace('"scan_size": 1}', '"scan_size": "4/6", "inertia": 0.25}', 1),
        False,
    ),
    "inertia before scan_size": (
        graph_file(CANONICAL_EDGES).replace('"id": 1, "scan_size": 1}', '"id": 1, "inertia": 2, "scan_size": 1}'),
        True,
    ),
    "two prices": (
        graph_file(CANONICAL_EDGES).replace('"scan_size": 1}', '"scan_size": 1, "inertia": 2, "inertia": 3}', 1),
        True,
    ),
    "inertia on an edge line": (graph_file(CANONICAL_EDGES.replace('"cost": 2}', '"cost": 2, "inertia": 3}')), True),
    "empty side": (
        '{\n  "v1": [\n\n  ],\n  "v2": [\n    {"id": 0, "scan_size": "1/3"}\n  ],\n  "edges": [\n\n  ]\n}\n',
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL_TEXTS))
def test_adversarial_edge_sections_read_as_the_json_parser_reads_them(case):
    text, whole = ADVERSARIAL_TEXTS[case]
    assert read_whole(text) == whole


def _reciprocal_costs(denominators) -> str:
    """A file in dumps_graph's layout: one side-1 vertex joined to one
    side-2 vertex per denominator q by an edge of cost ``"1/q"``."""
    v2 = ",\n".join(f'    {{"id": {k}, "scan_size": 1}}' for k in range(len(denominators)))
    edges = ",\n".join(f'    {{"u": 0, "v": {k}, "cost": "1/{q}"}}' for k, q in enumerate(denominators))
    return graph_file(edges, '"v1": [\n    {"id": 0, "scan_size": 1}\n  ],\n  "v2": [\n' + v2 + "\n  ]")


def test_numpy_reader_refuses_a_common_denominator_past_the_bound_as_the_json_path_does():
    # 100 costs 1/(10**17 + k): their common denominator has over 1000 digits
    text = _reciprocal_costs([10**17 + k for k in range(100)])
    assert not read_whole(text)
    assert load_outcome(text) == (sp.GraphFormatError, "the values' common denominator exceeds 1000 digits")


def test_numpy_reader_scales_past_int64_as_the_json_path_does():
    # coprime 18-digit denominators: every scaled numerator is past int64
    text = _reciprocal_costs([10**17 + 3, 10**17 + 19, 999999999999999989])
    assert not read_whole(text)
    g = sp.loads_graph(text)
    assert g.den > 2**63 and min(g.cost_num) > 2**63
    # an 18-digit whole part over 10**18: a + b / 10**18 is past int64 too
    text = with_cost("999999999999999999.999999999999999999")
    assert not read_whole(text)
    assert sp.loads_graph(text).edges[1].cost == Fraction(10**36 - 1, 10**18)


def digit_run(rng: random.Random, k: int, lead: bool = False) -> str:
    """``k`` random digits; the first is a zero only with ``lead`` or when
    it is the only one."""
    first = rng.choice("0123456789" if lead or k == 1 else "123456789")
    return first + "".join(rng.choices("0123456789", k=k - 1))


def read_runs(runs: list[str], at_start: bool = False):
    """``graph._digits`` over a section holding ``runs``, each after ``": "``
    (a colon and a space, neither a digit); with ``at_start``, the first run
    starts at the section's first byte."""
    section, ends = "", []
    for run in runs:
        section += ("" if at_start and not section else ": ") + run
        ends.append(len(section))
    byte = np.frombuffer(section.encode("ascii"), dtype=np.uint8)
    return graph._digits(byte, np.array(ends, dtype=np.int64), np.array(list(map(len, runs)), dtype=np.int64))


@pytest.mark.parametrize("at_start", [False, True])
def test_digit_runs_read_as_int_reads_them(at_start):
    rng = random.Random(17)
    # every length, as a first run and after longer and shorter ones; the
    # 9-digit sections are summed in int32, the longer ones in int64
    by_length = [[digit_run(rng, k) for k in range(1, top + 1)] for top in (9, 18)]
    boundaries = ["999999999", "1000000000", str(2**31 - 1), str(2**31), str(10**18 - 1)]
    sections = [*by_length, [*by_length[1][::-1], "0"], boundaries, ["999999999", "7", "0", "12345"]]
    sections += [[run, "123456789012345678"] for run in ("5", "0", "99")]  # a short first run
    for runs in sections:
        value = read_runs(runs, at_start)
        assert value.dtype == np.int64
        assert value.tolist() == [int(run) for run in runs]
    assert read_runs([], at_start).tolist() == []


@pytest.mark.parametrize("at_start", [False, True])
@pytest.mark.parametrize(
    "runs",
    [
        ["1234567890123456789"],  # 19 digits
        ["12", "1" * 19],
        ["12", ""],
        ["1a4"],
        ["7", "12/4"],
        ["7", "1.5"],
        ["123456789", "1234:6789"],
        ["9" * 18, " 99"],
    ],
)
def test_digit_runs_with_a_non_digit_or_past_18_digits_read_as_none(runs, at_start):
    assert read_runs(runs, at_start) is None


def full_size_number(rng: random.Random) -> str:
    """A number as a graph file may hold it: an int, a decimal ``a.b`` (``b``
    may end in a zero) or a ``"p/q"`` string, often unreduced such as
    ``"4/6"``, each run of 1 to 18 digits. The reduced denominators divide
    ``126 * 10**18``, well within the bound on the common denominator; a
    ``"p/11"`` is always a multiple of 11, so only an unreduced one would
    bring a factor 11 into it."""
    k = functools.partial(rng.randint, 1, 18)
    kind = rng.randrange(4)
    if kind == 0:
        return digit_run(rng, k())
    if kind == 1:
        return f"{digit_run(rng, k())}.{digit_run(rng, k(), lead=True)}"
    if kind == 2:
        return f'"{11 * rng.randrange(10**16)}/11"'
    q = rng.choice([3, 6, 7, 9]) * 10 ** rng.randint(0, 17)
    return f'"{digit_run(rng, k(), lead=True)}/{q}"'


def full_size_text(rng: random.Random, n: int = 2000, num_edges: int = 20_000) -> str:
    """A file in dumps_graph's layout with ``n`` vertices a side, ids of 1
    to 18 digits, a price on about a third of them, and ``num_edges``
    edges that leave the last two vertices of each side isolated."""
    ids = []
    for _ in range(2):
        side: dict[int, None] = {}
        while len(side) < n:
            side[int(digit_run(rng, rng.randint(1, 18)))] = None
        ids.append(list(side))
    sides = []
    for side in ids:
        lines = []
        for i in side:
            price = f', "inertia": {full_size_number(rng)}' if rng.random() < 0.3 else ""
            lines.append(f'    {{"id": {i}, "scan_size": {full_size_number(rng)}{price}}}')
        sides.append(",\n".join(lines))
    pairs: dict[tuple[int, int], None] = {}
    while len(pairs) < num_edges:
        pairs[rng.randrange(n - 2), rng.randrange(n - 2)] = None
    edges = ",\n".join(
        f'    {{"u": {ids[0][u]}, "v": {ids[1][v]}, "cost": {full_size_number(rng)}}}' for u, v in pairs
    )
    return graph_file(edges, f'"v1": [\n{sides[0]}\n  ],\n  "v2": [\n{sides[1]}\n  ]')


def test_full_size_file_reads_as_the_json_parser_reads_it():
    text = full_size_text(random.Random(41))
    assert {len(run) for run in re.findall(r"\d+", text)} == set(range(1, 19))
    assert re.search(r'"(\d*[02468])/(\d*[02468])"', text)  # an unreduced "p/q"
    outcome = load_outcome(text)
    assert outcome == load_outcome(text, reader=False)
    ids, den, *_, pruned, numbers, warned = outcome
    assert len(ids[0]) == len(ids[1]) == 1998 and len(pruned) == 4 and den > 2**63
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert graph._dumped_graph(text) is not None  # read in numpy passes


def build_from_ids(ids, pairs) -> sp.ExchangeGraph:
    """A graph with unit values on the given side ids and (u id, v id) edges."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # pruned vertices
        sides = ([(i, 1, None) for i in side] for side in ids)
        return sp.ExchangeGraph.from_vertices(*sides, [(u, v, 1) for u, v in pairs])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_end_positions_find_each_end_as_a_dict_of_ids_does(data):
    # ids with gaps, around the int64 bound and past it
    pool = st.one_of(st.integers(0, 9), st.sampled_from([2**31, 2**63 - 2, 2**63 - 1, 2**63, 2**70]))
    ids = [data.draw(st.lists(pool, unique=True, max_size=5)) for _ in range(2)]
    m = data.draw(st.integers(0, 6))
    us, vs = (data.draw(st.lists(st.one_of(st.just(-1), pool), min_size=m, max_size=m)) for _ in range(2))
    positions = [{i: k for k, i in enumerate(side)} for side in ids]
    want = [(positions[0].get(u), positions[1].get(v)) for u, v in zip(us, vs)]
    if all(max(ends, default=0) < 2**63 for ends in (us, vs)) and data.draw(st.booleans()):
        us, vs = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)  # as the numpy reader hands them
    missing = [k for k, pair in enumerate(want) if None in pair]
    if missing:
        k = missing[0]
        message = f"{graph._edge_text(us[k], vs[k])} references a missing vertex"
        with pytest.raises(sp.IndexOutOfRange, match=f"^{re.escape(message)}$"):
            graph._end_positions(ids, us, vs)
        return
    eu, ev = graph._end_positions(ids, us, vs)
    assert [(int(i), int(j)) for i, j in zip(eu, ev)] == want
    pairs = [(int(u), int(v)) for u, v in zip(us, vs)]
    if len(set(pairs)) == m:
        g = build_from_ids(ids, pairs)
        keys = [(sp.VertexId(1, u), sp.VertexId(2, v)) for u, v in pairs]
        keys += [(sp.VertexId(1, i), sp.VertexId(2, j)) for i in (-1, 2**70, 2**63) for j in ids[1][:2]]
        table = {key: k for k, key in enumerate(g.edge_key_list)}
        assert g.edge_positions(keys).tolist() == [table.get(key, -1) for key in keys]


def json_lengths(text: str) -> list[int]:
    """The length of each text that ``loads_graph(text)`` hands the JSON parser."""
    lengths, parse = [], graph._load_json
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_load_json", lambda part: lengths.append(len(part)) or parse(part))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sp.loads_graph(text)
    return lengths


def test_dumped_files_skip_the_json_parse():
    rng = random.Random(5)
    dumped = [
        random_graph(rng, rational_costs=True),  # "p/q" costs
        sp.build_graph([1, 1], [1], [(0, 0, "0.25"), (1, 0, 3)], v1_inertia={1: "1/3"}),  # a decimal cost, a price
        random_graph(rng),
        random_graph(rng, rational_weights=False),
        sp.build_graph([], [], []),
    ]
    for g in dumped:
        assert json_lengths(sp.dumps_graph(g)) == []
    # reindented, hand-written, and with a 19-digit run
    whole = [
        json.dumps(json.loads(sp.dumps_graph(random_graph(rng, rational_costs=True))), indent=2) + "\n",
        json.dumps({"v1": [{"id": 0, "scan_size": 1}], "v2": [{"id": 0, "scan_size": 1}], "edges": [{"u": 0, "v": 0}]}),
        sp.dumps_graph(sp.build_graph([1], [1], [(0, 0, Fraction(1, 10**18 + 1))])),
    ]
    for text in whole:
        assert json_lengths(text) == [len(text)]


def test_boundary_objects_share_one_fraction_per_value():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rational_costs=rng.random() < 0.5)
        assert g.edges == tuple(sp.Edge(u, v, Fraction(c, g.den)) for (u, v), c in zip(g.edge_key_list, g.cost_num))
        assert all(type(e) is sp.Edge and type(e.cost) is Fraction for e in g.edges)
        for vertices, vids, sizes, prices in zip((g.v1, g.v2), g.vids, g.size_num, g.inertia_num):
            assert vertices == tuple(
                sp.ScanVertex(vid, Fraction(x, g.den), None if p is None else Fraction(p, g.den))
                for vid, x, p in zip(vids, sizes, prices)
            )
    g = sp.build_graph([1, 1], [1], [(0, 0, "1/3"), (1, 0, "1/3")], v1_inertia={0: 2})
    assert g.edges[0].cost is g.edges[1].cost and g.v2[0].inertia is None
