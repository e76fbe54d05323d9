"""Exchange-graph model: construction, validation, weights, serialization."""

import json
import math
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanplan as sp
from scanplan.candidates import make_pose
from scanplan.cli import SweepSpec
from scanplan.graph import MAX_DENOMINATOR_DIGITS, _rational_texts, effective_weight, format_rational
from scanplan.objectives import _shown, as_fraction

from conftest import build_quiet


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
    ],
)
def test_constructor_refuses_inconsistent_index_arrays(arrays, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        sp.ExchangeGraph(**{**ONE_EDGE_ARRAYS, **arrays})


def test_side_lookups_refuse_a_third_side(double_star):
    with pytest.raises(sp.ValidationError, match="^robot side must be 1 or 2, got 3$"):
        double_star.side_vids(3)


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=30),
    st.integers(0, 40),
    st.integers(0, 40),
    st.sampled_from([1, 3, 7, 9, 11, 2**61 - 1]),
)
def test_rational_texts_match_format_rational(nums, twos, fives, rest):
    # the texts of many numerators over one denominator, as the trace and
    # graph writers print them
    den = 2**twos * 5**fives * rest
    nums += [0, den, -den, 2 * den, den // 2]
    texts = _rational_texts(nums, den)
    assert texts == {num: format_rational(Fraction(num, den)) for num in nums}


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
    for value, message in (
        (np.bool_(True), "cannot interpret np.True_ as a number"),
        (np.float32("inf"), "non-finite value np.float32(inf)"),
    ):
        with pytest.raises(sp.ValidationError, match=f"^{re.escape(message)}$"):
            as_fraction(value)


BIG = 10**5000  # past the interpreter's 4300-digit int-to-str limit


def _one_edge():
    return sp.build_graph([1], [1], [(0, 0, 1)])


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
    ],
    ids=[
        "closure-shape", "fraction-end", "int-end", "from-vertices-end", "as-fraction", "policy-bit",
        "edge-cost", "vertex", "ground-truth", "negative-size", "objective-parameter",
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
def graph_documents(draw) -> str:
    """A graph file with ids in shuffled, non-contiguous order, costs and
    inertia prices that are sometimes missing, and now and then an edge
    end that no vertex holds."""
    ids = [draw(st.lists(st.integers(0, 40), unique=True, max_size=5)) for _ in range(2)]
    sides = []
    for side in ids:
        entries = []
        for i in side:
            price = f', "inertia": {draw(VALUE_TOKENS)}' if draw(st.booleans()) else ""
            entries.append(f'{{"id": {i}, "scan_size": {draw(VALUE_TOKENS)}{price}}}')
        sides.append(", ".join(entries))
    ends = [st.sampled_from(side) | st.just(41) if side else st.just(41) for side in ids]
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
