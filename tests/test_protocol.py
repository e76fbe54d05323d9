"""Rendezvous simulation: determinism, byte accounting, complete search,
and the strategy comparison ordering."""

import math
import random
import re
from fractions import Fraction

import pytest

import scanplan as sp
from scanplan.protocol import CLOSURE_PHASE, METADATA_PHASE, SCAN_PHASE

from conftest import A1, B1, random_admissible_policy, random_graph


def edge(u_index, v_index):
    return (sp.VertexId(1, u_index), sp.VertexId(2, v_index))


def test_redundant_edge_needs_no_closure_message(double_star):
    cfg = sp.RendezvousConfig(ground_truth_closures=frozenset({edge(0, 0)}))
    trace = sp.run_rendezvous(double_star, cfg)
    # the hub-hub edge lies in the doubly-verified set under the optimal cover
    assert trace.policy.ones == frozenset({A1, B1})
    assert edge(0, 0) in trace.redundant
    assert trace.discovered_1 == trace.discovered_2 == frozenset({edge(0, 0)})
    assert [m for m in trace.messages if m.phase == CLOSURE_PHASE] == []
    assert trace.closure_bytes == 0


def test_empty_ground_truth_transmits_nothing(double_star):
    trace = sp.run_rendezvous(double_star, sp.RendezvousConfig())
    assert trace.discovered_1 == trace.discovered_2 == frozenset()
    assert trace.closure_bytes == 0
    # every candidate was still screened by someone
    assert trace.verified_1 | trace.verified_2 == double_star.edge_keys()


def test_dead_channel_marks_undelivered(double_star):
    # edge a2-b1 is verified only by robot 1 under the optimal cover
    cfg = sp.RendezvousConfig(
        ground_truth_closures=frozenset({edge(1, 0)}),
        channel_alive_after_exchange=False,
    )
    trace = sp.run_rendezvous(double_star, cfg)
    assert trace.discovered_1 == frozenset({edge(1, 0)})
    assert trace.discovered_2 == frozenset()
    assert trace.undelivered_1 == frozenset({edge(1, 0)})
    assert trace.closure_bytes == 0
    assert [m for m in trace.messages if m.phase == CLOSURE_PHASE] == []


def test_ground_truth_outside_candidates_rejected(double_star):
    message = "1 ground-truth closures outside the candidate set: 1:3-2:3"
    with pytest.raises(sp.GroundTruthOutsideCandidates, match=f"^{re.escape(message)}$"):
        sp.run_rendezvous(
            double_star,
            sp.RendezvousConfig(ground_truth_closures=frozenset({edge(3, 3)})),
        )


def test_forced_policy_must_be_admissible(double_star):
    with pytest.raises(sp.InadmissiblePolicy):
        sp.run_rendezvous(
            double_star,
            sp.RendezvousConfig(),
            policy=sp.Policy(double_star.vertex_ids, ()),
        )


def test_trace_deterministic(double_star):
    cfg = sp.RendezvousConfig(ground_truth_closures=frozenset({edge(0, 2), edge(2, 0)}))
    t1 = sp.run_rendezvous(double_star, cfg)
    t2 = sp.run_rendezvous(double_star, cfg)
    assert t1.messages == t2.messages
    assert sp.format_trace(t1) == sp.format_trace(t2)


def test_scan_bytes_equal_comm_cost_and_conservation():
    rng = random.Random(53)
    for _ in range(20):
        g = random_graph(rng)
        pi = random_admissible_policy(g, rng)
        gt = frozenset(k for k in g.edge_keys() if rng.random() < 0.4)
        cfg = sp.RendezvousConfig(ground_truth_closures=gt)
        trace = sp.run_rendezvous(g, cfg, policy=pi)
        assert trace.scan_bytes == sp.comm_cost(g, pi)
        by_phase = {METADATA_PHASE: Fraction(0), SCAN_PHASE: Fraction(0), CLOSURE_PHASE: Fraction(0)}
        for m in trace.messages:
            by_phase[m.phase] += m.size
        assert by_phase[METADATA_PHASE] == trace.metadata_bytes
        assert by_phase[SCAN_PHASE] == trace.scan_bytes
        assert by_phase[CLOSURE_PHASE] == trace.closure_bytes
        assert trace.total_bytes == sum(by_phase.values())


def test_complete_search_and_closure_phase_exactness():
    rng = random.Random(59)
    for _ in range(30):
        g = random_graph(rng)
        pi = random_admissible_policy(g, rng)
        gt = frozenset(k for k in g.edge_keys() if rng.random() < 0.5)
        trace = sp.run_rendezvous(g, sp.RendezvousConfig(ground_truth_closures=gt), policy=pi)
        # complete search: together the robots find every true closure
        assert trace.discovered_1 | trace.discovered_2 == gt
        # both robots find an edge iff it is redundantly assigned and true
        assert trace.discovered_1 & trace.discovered_2 == trace.redundant & gt
        # closure messages are exactly the per-robot exclusive finds
        sent = {(m.sender, m.summary) for m in trace.messages if m.phase == CLOSURE_PHASE}
        expect = set()
        for side, found in ((1, trace.discovered_1), (2, trace.discovered_2)):
            for u, v in found - (trace.discovered_1 & trace.discovered_2):
                expect.add((f"robot{side}", f"closure[{u}-{v}]"))
        assert sent == expect


def test_strategy_table_double_star(double_star):
    rows = sp.compare_strategies(double_star, sp.RendezvousConfig())
    by_name = {r.strategy: r for r in rows}
    assert by_name["optimal"].scan_bytes == 2
    assert by_name["monolog1"].scan_bytes == 4
    assert by_name["monolog2"].scan_bytes == 4
    assert by_name["full_bidirectional"].scan_bytes == 8
    assert by_name["monolog1"].ell2 == 7 and by_name["monolog1"].ell1 == 0


def test_strategy_table_single_edge(single_edge):
    rows = {r.strategy: r for r in sp.compare_strategies(single_edge, sp.RendezvousConfig())}
    assert rows["optimal"].scan_bytes == 3
    assert rows["monolog1"].scan_bytes == 5
    assert rows["monolog2"].scan_bytes == 3
    assert rows["full_bidirectional"].scan_bytes == 8


def test_strategy_ordering_random():
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng)
        rows = {r.strategy: r for r in sp.compare_strategies(g, sp.RendezvousConfig())}
        opt = rows["optimal"].scan_bytes
        m1, m2 = rows["monolog1"].scan_bytes, rows["monolog2"].scan_bytes
        bidir = rows["full_bidirectional"].scan_bytes
        assert opt <= min(m1, m2) <= m1 + m2 == bidir


def test_metadata_accounting_and_broker_hosting(double_star):
    base = sp.run_rendezvous(double_star, sp.RendezvousConfig(metadata_bytes_per_vertex=3))
    # 4 poses per robot at 3 bytes each, plus one policy byte back to each
    assert base.metadata_bytes == 4 * 3 + 4 * 3 + 1 + 1
    hosted = sp.run_rendezvous(
        double_star, sp.RendezvousConfig(metadata_bytes_per_vertex=3, broker_host=1)
    )
    # robot 1's legs are free when it hosts the broker
    assert hosted.metadata_bytes == 4 * 3 + 1


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"metadata_bytes_per_vertex": -1}, "message byte sizes must be non-negative"),
        ({"broker_host": 3}, "broker_host must be 1, 2, or None, got 3"),
        ({"closure_message_bytes": -0.5}, "message byte sizes must be non-negative"),
        ({"closure_message_bytes": math.nan}, "closure_message_bytes must be a finite number, got nan"),
        ({"metadata_bytes_per_vertex": math.inf}, "metadata_bytes_per_vertex must be a finite number, got inf"),
        ({"closure_message_bytes": -math.inf}, "closure_message_bytes must be a finite number, got -inf"),
        ({"metadata_bytes_per_vertex": "3"}, "metadata_bytes_per_vertex must be a finite number, got '3'"),
        ({"closure_message_bytes": None}, "closure_message_bytes must be a finite number, got None"),
        ({"metadata_bytes_per_vertex": True}, "metadata_bytes_per_vertex must be a finite number, got True"),
        ({"closure_message_bytes": "9" * 30}, f"closure_message_bytes must be a finite number, got '{'9' * 19}..."),
        ({"ground_truth_closures": {1, 2}}, "ground-truth closure 1 is not a pair of (side, index) ids"),
        (
            {"ground_truth_closures": {(sp.VertexId(1, 0),)}},
            "ground-truth closure (VertexId(side=1, in... is not a pair of (side, index) ids",
        ),
        (
            {"ground_truth_closures": {edge(0, 5), ("a", "b")}},
            "ground-truth closure ('a', 'b') is not a pair of (side, index) ids",
        ),
        (
            {"ground_truth_closures": {((1, True), (2, 0))}},
            "ground-truth closure ((1, True), (2, 0)) is not a pair of (side, index) ids",
        ),
        (
            {"ground_truth_closures": [((1, 0, 0), (2, 0))]},
            "ground-truth closure ((1, 0, 0), (2, 0)) is not a pair of (side, index) ids",
        ),
    ],
)
def test_config_refuses_bad_knobs(knobs, message):
    with pytest.raises(sp.ValidationError, match=f"^{re.escape(message)}$"):
        sp.RendezvousConfig(**knobs)


def test_config_reads_ground_truth_once(double_star):
    # an iterator of closures gives the session the frozenset would
    truth = [edge(1, 0), edge(0, 0)]
    cfg = sp.RendezvousConfig(ground_truth_closures=iter(truth))
    assert cfg == sp.RendezvousConfig(ground_truth_closures=frozenset(truth))
    assert sp.run_rendezvous(double_star, cfg).discovered_1 == frozenset(truth)


def test_trace_format_lines(double_star):
    cfg = sp.RendezvousConfig(ground_truth_closures=frozenset({edge(1, 0)}))
    trace = sp.run_rendezvous(double_star, cfg)
    lines = sp.format_trace(trace).splitlines()
    assert len(lines) == len(trace.messages)
    for line in lines:
        phase, sender, recipient, size, summary = line.split(" ", 4)
        assert phase in (METADATA_PHASE, SCAN_PHASE, CLOSURE_PHASE)
        assert sender in ("robot1", "robot2", "broker")
        assert recipient in ("robot1", "robot2", "broker")
        Fraction(size)  # parses back exactly
    # one closure crosses: a2-b1 is exclusive to robot 1
    assert lines[-1] == "closure robot1 robot2 64 closure[1:1-2:0]"


def test_strategy_table_csv(double_star):
    rows = sp.compare_strategies(double_star, sp.RendezvousConfig())
    text = sp.strategy_table_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "strategy,scan_bytes,metadata_bytes,ell1,ell2"
    assert lines[1].startswith("optimal,2,")
    assert len(lines) == 5


def test_empty_graph_strategies_all_zero():
    g = sp.build_graph([], [], [])
    rows = sp.compare_strategies(g, sp.RendezvousConfig())
    assert all(r.scan_bytes == 0 and r.metadata_bytes == 0 for r in rows)


def test_byte_sizes_are_read_exactly():
    # a 3-by-3 double star: the hubs are sent, and each of three true
    # closures is screened by one robot only
    g = sp.build_graph([1, 1, 1], [1, 1, 1], [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)])
    tenth = Fraction(0.1)
    cfg = sp.RendezvousConfig(
        metadata_bytes_per_vertex=0.1,
        closure_message_bytes=0.1,
        ground_truth_closures=frozenset({edge(1, 0), edge(2, 0), edge(0, 1)}),
    )
    assert (cfg.metadata_bytes_per_vertex, cfg.closure_message_bytes) == (tenth, tenth)
    trace = sp.run_rendezvous(g, cfg)
    meta = [m.size for m in trace.messages if m.phase == METADATA_PHASE and m.summary == "meta[3]"]
    closures = [m.size for m in trace.messages if m.phase == CLOSURE_PHASE]
    # 3 * 0.1 in floats is 0.30000000000000004, which is not 3 * Fraction(0.1)
    assert meta == [3 * tenth, 3 * tenth]
    assert closures == [tenth] * 3
    for phase, total in ((METADATA_PHASE, trace.metadata_bytes), (SCAN_PHASE, trace.scan_bytes)):
        assert total == sum(m.size for m in trace.messages if m.phase == phase)
    assert trace.closure_bytes == sum(closures) == 3 * tenth
