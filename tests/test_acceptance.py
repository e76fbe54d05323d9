"""Acceptance suite: every exit criterion, each at its stated tolerance,
printing one pass/fail line per criterion (run with -s to see them)."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import scanplan as sp
from scanplan.candidates import GeometryParams, build_geometric, read_feature_counts, read_kitti_poses
from scanplan.protocol import CLOSURE_PHASE

from conftest import (
    build_quiet,
    ghc_subset_oracle,
    random_admissible_policy,
    random_fraction,
    random_graph,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, description: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'} - {description}")


def three_objectives(rng):
    return (
        sp.Objective.p1(random_fraction(rng), random_fraction(rng)),
        sp.Objective.p2(),
        sp.Objective.p3(random_fraction(rng), random_fraction(rng), random_fraction(rng)),
    )


def test_criterion_1_oracle_equivalence():
    with criterion(1, "solve() equals exhaustive brute force for P1/P2/P3 on 200 random graphs"):
        rng = random.Random(8191)
        start = time.perf_counter()
        for _ in range(200):
            g = random_graph(rng, max_side=7, rational_costs=True)
            assert g.num_vertices <= 14
            for obj in three_objectives(rng):
                fast = sp.solve(g, obj)
                slow = sp.solve_brute_force(g, obj)
                assert fast.optimal_cost == slow.optimal_cost
                assert sp.is_admissible(g, fast.policy)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_monolog_certificates_both_directions():
    with criterion(2, "GHC certificate agrees with subset enumeration; violations yield cheaper policies"):
        rng = random.Random(127)
        for _ in range(200):
            g = random_graph(rng, max_side=5, rational_costs=True)
            obj = three_objectives(rng)[rng.randrange(3)]
            optimal = sp.solve(g, obj).optimal_cost
            for side in (1, 2):
                cert = sp.check_ghc(g, obj, side)
                oracle = ghc_subset_oracle(g, obj, side)
                monolog_cost = sp.objective_cost(g, sp.monolog(g, side), obj)
                assert cert.holds == oracle == (monolog_cost == optimal)
                if not cert.holds:
                    assert cert.witness_weight > cert.neighborhood_weight
                    assert sp.is_admissible(g, cert.improving_policy)
                    improving = sp.objective_cost(g, cert.improving_policy, obj)
                    assert improving < monolog_cost


def test_criterion_3_workload_closed_form():
    with criterion(3, "closed-form workload optimum equals min(alpha) * total edge cost and solve(P1)"):
        rng = random.Random(557)
        for _ in range(200):
            g = random_graph(rng, rational_costs=True)
            a1, a2 = random_fraction(rng), random_fraction(rng)
            closed = sp.p1_closed_form(g, a1, a2)
            assert closed.optimal_cost == min(a1, a2) * g.total_edge_cost()
            assert closed.optimal_cost == sp.solve(g, sp.Objective.p1(a1, a2)).optimal_cost


def test_criterion_4_koenig_and_hall():
    with criterion(4, "uniform weights: cover weight equals matching size; saturation iff GHC"):
        rng = random.Random(733)
        for _ in range(200):
            unit = Fraction(rng.randint(1, 5))
            g = random_graph(rng, uniform_weight=unit)
            via_matching = sp.solve_uniform_matching(g)
            via_flow = sp.solve(g, sp.Objective.p2())
            assert via_matching.optimal_cost == via_flow.optimal_cost
            assert len(via_matching.matching) * unit == via_flow.optimal_cost
            for side in (1, 2):
                hall = sp.check_hall_uniform(g, side)
                ghc = sp.check_ghc(g, sp.Objective.p2(), side).holds
                assert hall == ghc


def k_regular_bipartite(n, k, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(i, (perm[i] + shift) % n) for shift in range(k) for i in range(n)]
    return sp.build_graph([1] * n, [1] * n, edges)


def test_criterion_5_regular_and_complete_graphs():
    with criterion(5, "smaller-side monolog is optimal in k-regular and complete bipartite graphs"):
        rng = random.Random(911)
        for k in range(1, 6):
            for _ in range(8):
                n = rng.randint(max(k, 2), 40)
                g = k_regular_bipartite(n, k, rng)
                optimal = sp.solve(g, sp.Objective.p2()).optimal_cost
                monolog_cost = sp.comm_cost(g, sp.monolog(g, 1))
                assert optimal == monolog_cost == n
        for _ in range(20):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            g = sp.build_graph(
                [1] * m, [1] * n, [(i, j) for i in range(m) for j in range(n)]
            )
            optimal = sp.solve(g, sp.Objective.p2()).optimal_cost
            v_min = 1 if m <= n else 2
            assert optimal == sp.comm_cost(g, sp.monolog(g, v_min)) == min(m, n)


def test_criterion_6_double_star_fixture(double_star):
    with criterion(6, "double-star fixture: cover {hub1, hub2} at cost 2, workloads split 4/4"):
        a1, b1 = sp.VertexId(1, 0), sp.VertexId(2, 0)
        res = sp.solve(double_star, sp.Objective.p2())
        assert res.optimal_cost == 2
        assert res.policy.ones == frozenset({a1, b1})
        assert sp.comm_cost(double_star, sp.monolog(double_star, 1)) == 4
        assert sp.comm_cost(double_star, sp.monolog(double_star, 2)) == 4
        report = sp.workloads(double_star, res.policy, 1, 1)
        assert report.l1_edges == frozenset(e.key for e in double_star.edges if e.v == b1)
        assert report.l2_edges == frozenset(e.key for e in double_star.edges if e.u == a1)
        assert len(report.l1_edges) == len(report.l2_edges) == 4
        assert report.l12_edges == frozenset({(a1, b1)})


def test_criterion_7_solve_performance():
    with criterion(7, "2,000-vertex / 96,000-edge instance solves within 2 seconds"):
        rng = random.Random(4099)
        n1 = n2 = 1000
        edges = set()
        for i in range(n1):
            edges.add((i, rng.randrange(n2)))
        for j in range(n2):
            edges.add((rng.randrange(n1), j))
        while len(edges) < 96_000:
            edges.add((rng.randrange(n1), rng.randrange(n2)))
        w1 = [rng.randint(1, 4000) for _ in range(n1)]
        w2 = [rng.randint(1, 4000) for _ in range(n2)]
        g = build_quiet(w1, w2, sorted(edges))
        assert g.num_vertices == 2000 and g.num_edges == 96_000
        start = time.perf_counter()
        res = sp.solve(g, sp.Objective.p2())
        elapsed = time.perf_counter() - start
        assert sp.is_admissible(g, res.policy)
        assert res.certificate == res.optimal_cost
        assert elapsed <= 2.0, f"solve took {elapsed:.2f}s"
        print(f"\n    (solved in {elapsed:.2f}s via {res.engine})")


def test_criterion_8_strategy_ordering():
    with criterion(8, "optimal <= best monolog <= monolog sum == full bidirectional, always"):
        rng = random.Random(6151)
        for _ in range(100):
            g = random_graph(rng)
            rows = {r.strategy: r for r in sp.compare_strategies(g, sp.RendezvousConfig())}
            opt = rows["optimal"].scan_bytes
            m1, m2 = rows["monolog1"].scan_bytes, rows["monolog2"].scan_bytes
            bidir = rows["full_bidirectional"].scan_bytes
            assert opt <= min(m1, m2) <= m1 + m2 == bidir == sp.comm_cost(g, sp.full_bidirectional(g))


def test_criterion_9_protocol_completeness():
    with criterion(9, "complete search and exact closure-phase transmissions on 100 random sessions"):
        rng = random.Random(7919)
        for _ in range(100):
            g = random_graph(rng)
            pi = random_admissible_policy(g, rng)
            gt = frozenset(k for k in g.edge_keys() if rng.random() < 0.5)
            cfg = sp.RendezvousConfig(ground_truth_closures=gt)
            trace = sp.run_rendezvous(g, cfg, policy=pi)
            assert trace.discovered_1 | trace.discovered_2 == gt
            both = trace.discovered_1 & trace.discovered_2
            sent = sorted(
                m.summary for m in trace.messages if m.phase == CLOSURE_PHASE
            )
            expect = sorted(
                f"closure[{u}-{v}]"
                for found in (trace.discovered_1 - both, trace.discovered_2 - both)
                for u, v in found
            )
            assert sent == expect


def test_criterion_10_fixture_sweeps_and_pose_ingestion():
    with criterion(10, "two-loop fixture sweeps: nested candidates, monotone optimum, strict dialog win"):
        # ingesting the bundled KITTI-format fixture is part of the check
        t1 = read_kitti_poses(
            DATA / "two_loop_poses1.txt", read_feature_counts(DATA / "two_loop_features1.txt")
        )
        t2 = read_kitti_poses(
            DATA / "two_loop_poses2.txt", read_feature_counts(DATA / "two_loop_features2.txt")
        )
        assert len(t1) == len(t2) == 100

        def strategy_costs(params):
            g = build_geometric(t1, t2, params)
            optimal = sp.solve(g, sp.Objective.p2()).optimal_cost
            m1 = sp.comm_cost(g, sp.monolog(g, 1))
            m2 = sp.comm_cost(g, sp.monolog(g, 2))
            return g.edge_keys(), optimal, min(m1, m2)

        for sweep in (
            [GeometryParams(d_max=d, eta=0.0) for d in (10, 20, 30, 40, 50)],
            [GeometryParams(d_max=30, eta=e) for e in (0.0, 0.2, 0.4, 0.6, 0.8)],
        ):
            results = [strategy_costs(p) for p in sweep]
            edge_sets = [r[0] for r in results]
            optima = [r[1] for r in results]
            # candidate sets nest along the sweep, so optima are monotone
            growing = all(a <= b for a, b in zip(edge_sets, edge_sets[1:]))
            shrinking = all(b <= a for a, b in zip(edge_sets, edge_sets[1:]))
            assert growing or shrinking
            ordered = optima if growing else optima[::-1]
            assert ordered == sorted(ordered)
            # the dialog strictly beats the best monolog somewhere
            assert any(opt < best_monolog for _, opt, best_monolog in results)
