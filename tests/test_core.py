"""Integer-indexed graph core: the array-based costs, partitions and flow
engines against per-edge reference loops over the boundary objects, and
exact file round trips."""

import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanplan as sp
from scanplan.graph import format_rational
from scanplan.protocol import Message
from scanplan.solver import _INT32_SAFE_TOTAL

from conftest import build_quiet, random_admissible_policy, random_graph, random_objective, rational_graph, rescaled

DATA = Path(__file__).parent / "data"

# -- per-edge reference versions of the policy layer -------------------------
#
# These read only the Edge/ScanVertex objects built at the API boundary, one
# edge at a time, never the integer arrays the library functions use.


def ref_incident_cost(g, vid):
    return sum((e.cost for e in g.edges if vid in (e.u, e.v)), Fraction(0))


def ref_weight(g, vid, obj):
    scan = g.vertex(vid).effective_scan_size
    work = (obj.alpha2 if vid.side == 1 else obj.alpha1) * ref_incident_cost(g, vid)
    return {"p1": work, "p2": scan, "p3": scan + obj.omega * work}[obj.variant]


def ref_is_admissible(g, pi):
    return all(e.u in pi.ones or e.v in pi.ones for e in g.edges)


def ref_objective_cost(g, pi, obj):
    return sum((ref_weight(g, vid, obj) for vid in pi.ones), Fraction(0))


def ref_workloads(g, pi, alpha1, alpha2):
    l1, l2 = set(), set()
    ell1 = ell2 = Fraction(0)
    for e in g.edges:
        if e.v in pi.ones:  # robot 1 received the side-2 scan
            l1.add(e.key)
            ell1 += e.cost
        if e.u in pi.ones:
            l2.add(e.key)
            ell2 += e.cost
    return sp.WorkloadReport(
        frozenset(l1), frozenset(l2), frozenset(l1 & l2), ell1, ell2, alpha1 * ell1 + alpha2 * ell2
    )


def ref_execute_order(g, pi):
    return [
        sp.Transmission(vid, 2 if vid.side == 1 else 1, g.vertex(vid).effective_scan_size)
        for vid in sorted(pi.ones)
    ]


def ref_rendezvous(g, cfg, policy=None):
    """The broker session one edge and one vertex at a time: every
    ``RendezvousTrace`` value by name, and the ``format_trace`` text."""
    keys = {e.key for e in g.edges}
    bad = [key for key in cfg.ground_truth_closures if key not in keys]
    if bad:
        shown = ", ".join(f"{u}-{v}" for u, v in sorted(bad)[:8])
        shown += f", ... ({len(bad) - 8} more)" if len(bad) > 8 else ""
        raise sp.GroundTruthOutsideCandidates(f"{len(bad)} ground-truth closures outside the candidate set: {shown}")
    n = {1: len({e.u for e in g.edges}), 2: len({e.v for e in g.edges})}
    messages = []

    def leg(sender, recipient, side, size, summary):
        size = Fraction(0) if cfg.broker_host == side else Fraction(size)
        messages.append(Message("metadata", sender, recipient, size, summary))

    for side in (1, 2):
        leg(f"robot{side}", "broker", side, n[side] * cfg.metadata_bytes_per_vertex, f"meta[{n[side]}]")
    if policy is None:
        policy = sp.solve(g, cfg.objective).policy
    if not ref_is_admissible(g, policy):
        raise sp.InadmissiblePolicy("rendezvous requires a complete-search policy")
    for side in (1, 2):
        leg("broker", f"robot{side}", side, (n[side] + 7) // 8, f"policy[{n[side]}]")
    scan_bytes = Fraction(0)
    for vid in sorted(policy.ones):
        size = g.vertex(vid).effective_scan_size
        messages.append(Message("scan", f"robot{vid.side}", f"robot{3 - vid.side}", size, f"scan[{vid}]"))
        scan_bytes += size
    verified = {1: set(), 2: set()}
    ell = {1: Fraction(0), 2: Fraction(0)}
    for e in g.edges:
        for side, sent in ((1, e.v), (2, e.u)):  # robot 1 verifies with the side-2 scan
            if sent in policy.ones:
                verified[side].add(e.key)
                ell[side] += e.cost
    found = {side: {key for key in verified[side] if key in cfg.ground_truth_closures} for side in (1, 2)}
    exclusive = {1: found[1] - found[2], 2: found[2] - found[1]}
    closure_bytes = Fraction(0)
    undelivered = {1: set(), 2: set()}
    if cfg.channel_alive_after_exchange:
        for side in (1, 2):
            for u, v in sorted(exclusive[side]):
                size = Fraction(cfg.closure_message_bytes)
                messages.append(Message("closure", f"robot{side}", f"robot{3 - side}", size, f"closure[{u}-{v}]"))
                closure_bytes += size
    else:
        undelivered = exclusive
    values = {
        "messages": tuple(messages),
        "policy": policy,
        "verified_1": frozenset(verified[1]),
        "verified_2": frozenset(verified[2]),
        "redundant": frozenset(verified[1] & verified[2]),
        "discovered_1": frozenset(found[1]),
        "discovered_2": frozenset(found[2]),
        "undelivered_1": frozenset(undelivered[1]),
        "undelivered_2": frozenset(undelivered[2]),
        "metadata_bytes": sum((m.size for m in messages if m.phase == "metadata"), Fraction(0)),
        "scan_bytes": scan_bytes,
        "closure_bytes": closure_bytes,
        "ell1": ell[1],
        "ell2": ell[2],
    }
    text = "".join(f"{m.phase} {m.sender} {m.recipient} {format_rational(m.size)} {m.summary}\n" for m in messages)
    return values, text


def test_policy_layer_matches_per_edge_reference():
    rng = random.Random(211)
    for _ in range(60):
        g = rational_graph(rng, rng.randint(1, 8), rng.randint(1, 8))
        obj = random_objective(rng)
        admissible = random_admissible_policy(g, rng)
        arbitrary = sp.Policy(g.vertex_ids, (v for v in g.vertex_ids if rng.random() < 0.5))
        for pi in (admissible, arbitrary):
            assert sp.is_admissible(g, pi) == ref_is_admissible(g, pi)
            assert sp.objective_cost(g, pi, obj) == ref_objective_cost(g, pi, obj)
        assert sp.workloads(g, admissible, obj.alpha1, obj.alpha2) == ref_workloads(
            g, admissible, obj.alpha1, obj.alpha2
        )
        assert sp.execute_order(g, admissible) == ref_execute_order(g, admissible)
        for vid in g.vertex_ids:
            assert sp.effective_weight(g, vid, obj) == ref_weight(g, vid, obj)


def test_session_path_builds_no_boundary_objects():
    # parsing, solving, certifying and the broker session run on the index
    # arrays; Edge and ScanVertex objects stay unbuilt
    rng = random.Random(223)
    g0 = rational_graph(rng, 30, 30)
    gt = frozenset(k for k in g0.edge_keys() if rng.random() < 0.2)
    g = sp.loads_graph(sp.dumps_graph(g0))
    obj = sp.Objective.p3(Fraction(2, 3), Fraction(5, 7), Fraction(1, 11))
    sp.solve(g, obj)
    for side in (1, 2):
        sp.check_ghc(g, obj, side)
    sp.run_rendezvous(g, sp.RendezvousConfig(objective=obj, ground_truth_closures=gt))
    assert not {"edges", "v1", "v2"} & vars(g).keys()
    # nor edge keys, nor any dict with an entry per edge
    assert not {"edge_key_list", "_edge_keys"} & vars(g).keys()
    assert not [name for name, value in vars(g).items() if isinstance(value, dict) and len(value) >= g.num_edges]


def corridor_graph(rng, n):
    """Robot 1's pose i faces robot 2's poses i and i + 1, and i + 2 on
    about a third of the poses; non-decimal rational sizes and costs, and
    inertia prices on a tenth of side 1."""
    frac = lambda hi: Fraction(rng.randint(1, hi), rng.choice((3, 7, 9, 11, 13)))
    edges = [
        (i, j, frac(9)) for i in range(n) for j in (i, i + 1, i + 2) if j < n and (j < i + 2 or rng.random() < 0.3)
    ]
    inertia = {i: frac(4000) for i in rng.sample(range(n), n // 10)}
    return sp.build_graph([frac(4000) for _ in range(n)], [frac(4000) for _ in range(n)], edges, v1_inertia=inertia)


def test_exact_session_builds_no_per_vertex_ids():
    # the session reads the solver's masks over the graph's ids: no
    # VertexId per vertex, and no vertex set, is built on the way
    rng = random.Random(311)
    g0 = corridor_graph(rng, 200)
    truth = frozenset(k for k in g0.edge_keys() if rng.random() < 0.05)
    g = sp.loads_graph(sp.dumps_graph(g0))
    obj = sp.Objective.p3(Fraction(2, 3), Fraction(5, 7), Fraction(1, 11))
    result = sp.solve(g, obj)
    certificates = [sp.check_ghc(g, obj, side) for side in (1, 2)]
    trace = sp.run_rendezvous(g, sp.RendezvousConfig(objective=obj, ground_truth_closures=truth))
    policy_text = sp.dumps_policy(result.policy)
    trace_text = sp.format_trace(trace)
    assert result.engine == "dinic"
    assert not any(c.holds for c in certificates)  # both improving policies are built
    assert trace.closure_bytes > 0
    assert not {"vids", "vertex_ids", "vertex_set"} & vars(g).keys()
    # and the outputs are those of the same session on a policy read back
    # from its file, which keeps frozensets
    from_file = sp.loads_policy(policy_text)
    assert from_file == result.policy and sp.dumps_policy(from_file) == policy_text
    cfg = sp.RendezvousConfig(objective=obj, ground_truth_closures=truth)
    assert sp.format_trace(sp.run_rendezvous(g0, cfg, from_file)) == trace_text


def test_session_matches_per_edge_reference():
    rng = random.Random(233)
    for trial in range(120):
        if trial % 3:
            g = rational_graph(rng, rng.randint(1, 8), rng.randint(1, 8), inertia=trial % 3 == 1)
        else:
            g = random_graph(rng)
        truth = frozenset(key for key in g.edge_keys() if rng.random() < rng.choice((0, 0.3, 1)))
        cfg = sp.RendezvousConfig(
            objective=random_objective(rng),
            metadata_bytes_per_vertex=rng.randint(0, 5),
            ground_truth_closures=truth,
            channel_alive_after_exchange=rng.random() < 0.5,
            closure_message_bytes=rng.randint(0, 80),
            broker_host=rng.choice((None, 1, 2)),
        )
        policies = [
            None,
            sp.monolog(g, 1),
            sp.monolog(g, 2),
            sp.full_bidirectional(g),
            random_admissible_policy(g, rng),
        ]
        for policy in policies:
            trace = sp.run_rendezvous(g, cfg, policy)
            values, text = ref_rendezvous(g, cfg, policy)
            assert {name: getattr(trace, name) for name in values} == values
            assert all(type(m.size) is Fraction for m in trace.messages)
            assert sp.format_trace(trace) == text
        # an edge outside the candidates, or an inadmissible override: the
        # same exception and message
        outside = {(sp.VertexId(2, 0), sp.VertexId(1, 0)), (sp.VertexId(1, 99), sp.VertexId(2, 0))}
        cfg_bad = dataclasses.replace(cfg, ground_truth_closures=truth | outside)
        nothing = sp.Policy(g.vertex_ids, ())
        for run_args in ((cfg_bad, None), (cfg, nothing)):
            with pytest.raises(sp.ScanPlanError) as expected:
                ref_rendezvous(g, *run_args)
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                sp.run_rendezvous(g, *run_args)


def lookup(table, key):
    try:
        return table.get(key)
    except TypeError:  # unhashable: not an edge key
        return None


def test_edge_index_matches_dict_oracle():
    rng = random.Random(239)
    for _ in range(30):
        g = rational_graph(rng, rng.randint(1, 8), rng.randint(1, 8))
        table = {e.key: k for k, e in enumerate(g.edges)}
        ids = [vid.index for vid in g.vertex_ids]
        keys = [
            *table,
            *((v, u) for u, v in table),  # wrong sides
            *((tuple(u), tuple(v)) for u, v in table),  # plain tuples
            *((sp.VertexId(1, i), sp.VertexId(2, j)) for i in ids for j in ids),
            (sp.VertexId(1, 99), sp.VertexId(2, 0)),
            (sp.VertexId(1, 0), sp.VertexId(2, -1)),
            ((1, 0.0), (2, 0)),
            ((3, 0), (2, 0)),
            None,
            5,
            "ab",
            (sp.VertexId(1, 0),),
            (sp.VertexId(1, 0), sp.VertexId(2, 0), sp.VertexId(2, 1)),
            ((1, 0, 0), (2, 0)),
            (([], 0), (2, 0)),
        ]
        expected = [lookup(table, key) for key in keys]
        assert g.edge_positions(keys).tolist() == [-1 if k is None else k for k in expected]
        assert [g.edge_positions([key]).tolist() for key in keys] == [[-1 if k is None else k] for k in expected]
        for key, k in table.items():
            assert g.edge_cost(key) == g.edges[k].cost


def test_trace_edge_sets_are_lazy_views_of_the_workloads():
    rng = random.Random(241)
    g = rational_graph(rng, 12, 12)
    obj = sp.Objective.p3(Fraction(2, 3), Fraction(5, 7), Fraction(1, 11))
    cfg = sp.RendezvousConfig(objective=obj, ground_truth_closures=frozenset(list(g.edge_keys())[::3]))
    trace = sp.run_rendezvous(g, cfg)
    assert not {"verified_1", "verified_2", "redundant"} & vars(trace).keys()
    report = sp.workloads(g, trace.policy, obj.alpha1, obj.alpha2)
    assert (trace.verified_1, trace.verified_2, trace.redundant) == report[:3]
    assert (trace.ell1, trace.ell2) == report[3:5]
    again = sp.run_rendezvous(g, cfg)
    assert again == trace and hash(again) == hash(trace)
    assert again != dataclasses.replace(trace, scan_bytes=trace.scan_bytes + 1)


# -- the two flow engines ------------------------------------------------------

small_fractions = st.fractions(min_value=0, max_value=30, max_denominator=12)


@st.composite
def graphs(draw):
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(1, 6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)),
            min_size=1,
            max_size=n1 * n2,
            unique=True,
        )
    )
    return build_quiet(
        draw(st.lists(small_fractions, min_size=n1, max_size=n1)),
        draw(st.lists(small_fractions, min_size=n2, max_size=n2)),
        [(i, j, draw(small_fractions)) for i, j in pairs],
        v1_inertia=draw(st.dictionaries(st.integers(0, n1 - 1), small_fractions)),
        v2_inertia=draw(st.dictionaries(st.integers(0, n2 - 1), small_fractions)),
    )


@st.composite
def objectives(draw):
    variant = draw(st.sampled_from(("p1", "p2", "p3")))
    if variant == "p2":
        return sp.Objective.p2()
    alphas = (draw(small_fractions), draw(small_fractions))
    if variant == "p1":
        return sp.Objective.p1(*alphas)
    return sp.Objective.p3(*alphas, draw(small_fractions))


def assert_same_result(a, b):
    assert a.policy == b.policy
    assert a.certificate == b.certificate
    assert a.optimal_cost == b.optimal_cost


@settings(max_examples=150, deadline=None)
@given(graphs(), objectives())
def test_engines_return_identical_policies_and_certificates(g, obj):
    dinic = sp.solve(g, obj, engine="dinic")
    default = sp.solve(g, obj)
    assert_same_result(default, dinic)
    if default.engine == "scipy":
        assert_same_result(sp.solve(g, obj, engine="scipy"), dinic)
    else:  # scaled capacities at or above 2**30
        with pytest.raises(sp.ValidationError):
            sp.solve(g, obj, engine="scipy")


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_relabelling_keeps_the_cost_and_maps_the_policy_along(rng):
    # new ids and a new file order for the vertices and the edges; the edge
    # order also reorders the exact engine's greedy pass, and the
    # source-minimal cut is unique, so the policy maps along with the ids
    g = random_graph(rng)
    obj = random_objective(rng)
    new_id = [dict(zip(ids, rng.sample(range(1000), len(ids)))) for ids in g.ids]
    sides = []
    for s, vertices in enumerate((g.v1, g.v2)):
        entries = [(new_id[s][v.vid.index], v.scan_size, v.inertia) for v in vertices]
        rng.shuffle(entries)
        sides.append(entries)
    edges = [(new_id[0][e.u.index], new_id[1][e.v.index], e.cost) for e in g.edges]
    rng.shuffle(edges)
    h = sp.ExchangeGraph.from_vertices(*sides, edges)
    for engine in ("scipy", "dinic"):
        a, b = sp.solve(g, obj, engine=engine), sp.solve(h, obj, engine=engine)
        assert (b.optimal_cost, b.certificate) == (a.optimal_cost, a.certificate)
        assert b.policy.ones == {sp.VertexId(v.side, new_id[v.side - 1][v.index]) for v in a.policy.ones}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from((3, 7, 9)),
    st.integers(-3, 3),
    st.randoms(use_true_random=False),
)
def test_engine_switch_around_two_to_the_thirty(n1, n2, q, offset, rng):
    # P2 weights a/q with one numerator 1, so the scale is q and the scaled
    # capacity total is the numerator sum, set to 2**30 + offset
    rest = [rng.randint(1, 1000) for _ in range(n1 + n2 - 2)]
    big = _INT32_SAFE_TOTAL + offset - 1 - sum(rest)
    numerators = [big, *rest, 1]
    edges = [(i, j) for i in range(n1) for j in range(n2) if i == j or rng.random() < 0.5]
    edges += [(i, n2 - 1) for i in range(n1) if (i, n2 - 1) not in edges]
    edges += [(n1 - 1, j) for j in range(n2) if (n1 - 1, j) not in edges]
    weights = [Fraction(a, q) for a in numerators]
    g = sp.build_graph(weights[:n1], weights[n1:], edges)
    p2 = sp.Objective.p2()
    default = sp.solve(g, p2)
    dinic = sp.solve(g, p2, engine="dinic")
    assert_same_result(default, dinic)
    if offset < 0:
        assert default.engine == "scipy"
        assert_same_result(sp.solve(g, p2, engine="scipy"), dinic)
    else:
        assert default.engine == "dinic"
        with pytest.raises(sp.ValidationError):
            sp.solve(g, p2, engine="scipy")
    for side in (1, 2):
        cert = sp.check_ghc(g, p2, side)
        assert cert.optimal_cost == dinic.optimal_cost


# -- file round trips ----------------------------------------------------------


@pytest.mark.parametrize("name", ["double_star.json", "single_edge.json"])
def test_dumps_of_loads_is_identity_on_fixtures(name):
    text = (DATA / name).read_text(encoding="utf-8")
    assert sp.dumps_graph(sp.loads_graph(text)) == text


def test_dumps_of_loads_is_identity_on_rational_corridor():
    # robot 1's pose i faces robot 2's poses i and i + 1; every value has a
    # denominator without factor 2 or 5, so the file holds "p/q" strings
    rng = random.Random(227)
    n = 400
    odd = lambda hi: Fraction(rng.randint(1, hi), rng.choice((3, 7, 9, 11, 13)))
    edges = [(i, j, odd(9)) for i in range(n) for j in (i, i + 1) if j < n]
    g = sp.build_graph(
        [odd(4000) for _ in range(n)],
        [odd(4000) for _ in range(n)],
        edges,
        v1_inertia={i: odd(4000) for i in rng.sample(range(n), n // 10)},
    )
    text = sp.dumps_graph(g)
    assert text.count('/') > 2 * n
    again = sp.loads_graph(text)
    assert sp.dumps_graph(again) == text
    assert again.edges == g.edges and again.v1 == g.v1 and again.v2 == g.v2


def test_common_denominator_is_shared_by_every_value():
    g = random_graph(random.Random(229), rational_costs=True)
    for sv in g.v1 + g.v2:
        assert (sv.scan_size * g.den).denominator == 1
    for e in g.edges:
        assert (e.cost * g.den).denominator == 1


# -- integer columns: int64 below the bound, Python ints at it ------------------


def python_int_weights(g, obj):
    """Every vertex's weight under ``obj``, per side in position order, from
    the graph's tuples and one edge at a time in Python ints: the oracle
    for the numpy columns."""
    incident = ([0] * len(g.ids[0]), [0] * len(g.ids[1]))
    for i, j, c in zip(g.eu.tolist(), g.ev.tolist(), g.cost_num):
        incident[0][i] += c
        incident[1][j] += c
    weights = []
    for s, (sizes, prices) in enumerate(zip(g.size_num, g.inertia_num)):
        alpha = obj.alpha2 if s == 0 else obj.alpha1  # side 1 pays alpha2
        side = []
        for size, price, inc in zip(sizes, prices, incident[s]):
            scan = Fraction(size if price is None else price, g.den)
            work = alpha * Fraction(inc, g.den)
            side.append({"p1": work, "p2": scan, "p3": scan + obj.omega * work}[obj.variant])
        weights.append(side)
    return weights


def column_dtypes(columns):
    """The dtypes of integer columns, each checked against the rule: int64
    when ``len * max|v| < 2**62``, else Python ints."""
    for column in columns:
        top = max(map(abs, column.tolist()), default=0)
        assert column.dtype == (np.int64 if len(column) * top < 2**62 else object)
    return {column.dtype for column in columns}


def test_int_column_is_int64_just_below_the_bound_and_python_ints_at_it():
    below = [([2**61 - 1, 1], 2), ([2**62 - 1], 1), ([-(2**61) + 1, 0], 2), ([7] * 4, 4), ([], 0)]
    at = [([2**61, 1], 2), ([2**62], 1), ([-(2**61), 0], 2), ([2**63 + 5, 3], 2), ([2**200], 1)]
    for values, n in below + at:
        column = sp.graph._int_column(values)
        assert len(column) == n and column.tolist() == values
        assert not column.flags.writeable
        if (values, n) in below:
            assert column.dtype == np.int64
        else:
            assert column.dtype == object
            assert all(type(x) is int for x in column)
        # the same rule, whichever dtype the values arrive in
        assert sp.graph._int_column(column).dtype == column.dtype


@pytest.mark.parametrize("big, dtype", [(2**61 - 1, np.int64), (2**61, object)])
def test_graph_columns_take_their_dtype_at_the_bound(big, dtype):
    # two edges of cost ``big`` into one side-2 vertex: the cost column and
    # side 1's sizes and incident costs hold 2 * big, side 2's incident
    # column its one sum 2 * big
    g = sp.build_graph([big, 1], [big], [(0, 0, big), (1, 0, big)])
    assert g.costs.dtype == dtype and g.cost_num == (big, big)
    assert all(type(c) is int for c in g.cost_num)
    assert [c.dtype for c in g.eff_num] == [dtype, np.int64]
    assert [c.dtype for c in g.incident_num] == [dtype, dtype]
    assert g.incident_num[1].tolist() == [2 * big]
    assert sp.loads_graph(sp.dumps_graph(g)).costs.dtype == dtype
    # a P2 sum over the object column of side 1 and the int64 one of side 2
    assert sp.comm_cost(g, sp.full_bidirectional(g)) == 2 * big + 1


@pytest.mark.parametrize("digits", [1, 30, 100])
def test_costs_near_and_past_the_bound_match_a_python_int_oracle(digits):
    # P3 parameters whose numerators and denominators have up to 100 digits,
    # on graphs whose values are scaled to either side of the int64 bound
    rng = random.Random(digits)
    dtypes, weight_dtypes, compiled, witnesses = set(), set(), 0, 0
    for _ in range(8):
        g0 = rational_graph(rng, rng.randint(1, 5), rng.randint(1, 5))
        g = rescaled(g0, rng.choice((1, 2**40, 2**48, 2**49, 2**61, 3**50)))
        top = 10**digits
        alpha1, alpha2, omega = (Fraction(rng.randint(top // 10, top), rng.randint(1, top)) for _ in range(3))
        cfg = sp.RendezvousConfig(objective=sp.Objective.p3(alpha1, alpha2, omega))
        for obj in (cfg.objective, sp.Objective.p1(alpha1, alpha2), sp.Objective.p2()):
            oracle = python_int_weights(g, obj)
            weight, den = sp.graph.weight_numerators(g, obj)
            assert [[Fraction(int(w), den) for w in side] for side in weight] == oracle
            weight_dtypes |= column_dtypes(weight)
            best = sp.solve_brute_force(g, obj).optimal_cost
            for engine in ("scipy", "dinic"):
                try:
                    result = sp.solve(g, obj, engine=engine)
                except sp.ValidationError:  # the compiled engine's capacities stop at 2**30
                    assert engine == "scipy" and sum(map(sum, oracle)) * den >= 2**30
                    continue
                compiled += engine == "scipy"
                sent = sp.policy._sent_masks(g, result.policy)
                cost = sum(w for side, mask in zip(oracle, sent) for w, on in zip(side, mask.tolist()) if on)
                assert result.optimal_cost == result.certificate == cost == best
                assert sp.objective_cost(g, result.policy, obj) == cost
            for side in (1, 2):
                cert = sp.check_ghc(g, obj, side)
                own, other = oracle[side - 1], oracle[2 - side]
                assert cert.monolog_cost == sum(own) and cert.optimal_cost == best
                if not cert.holds:
                    witnesses += 1
                    ends = (g.eu.tolist(), g.ev.tolist())
                    witness = {vid.index for vid in cert.witness}
                    inside = [index in witness for index in g.ids[side - 1]]
                    near = {ends[2 - side][e] for e in range(g.num_edges) if inside[ends[side - 1][e]]}
                    assert cert.witness_weight == sum(w for w, on in zip(own, inside) if on)
                    assert cert.neighborhood_weight == sum(other[k] for k in near)
        trace = sp.run_rendezvous(g, cfg)
        values, _ = ref_rendezvous(g, cfg)
        assert (trace.scan_bytes, trace.ell1, trace.ell2) == (values["scan_bytes"], values["ell1"], values["ell2"])
        dtypes |= column_dtypes([g.costs, *g.eff_num, *g.incident_num])
    assert dtypes == weight_dtypes == {np.dtype(np.int64), np.dtype(object)}
    assert compiled and witnesses


def test_object_cost_column_prices_a_session_on_the_compiled_engine():
    # small scan sizes and costs past int64: P2 cuts on scipy, and the
    # workloads are sums over the object cost column
    rng = random.Random(239)
    for _ in range(10):
        g = rescaled(rational_graph(rng, rng.randint(1, 6), rng.randint(1, 6)), 1, 2**70 + 1)
        cfg = sp.RendezvousConfig(objective=sp.Objective.p2())
        trace = sp.run_rendezvous(g, cfg)
        assert sp.solve(g, cfg.objective).engine == "scipy"
        assert g.costs.dtype == object or not g.costs.any()
        values, text = ref_rendezvous(g, cfg)
        assert {name: getattr(trace, name) for name in values} == values
        assert sp.format_trace(trace) == text
