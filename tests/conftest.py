"""Shared fixtures: the double-star reference graph, random instance
generators, the exhaustive oracles the fast paths are checked against, and
a trajectory subsampler and file writers."""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import scanplan as sp
from scanplan.candidates import Trajectory, _check_count
from scanplan.graph import effective_weight

# the 8-vertex, 7-edge double star: one hub per side joined to every
# vertex of the other side
DOUBLE_STAR_EDGES = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]

A1, B1 = sp.VertexId(1, 0), sp.VertexId(2, 0)


@pytest.fixture
def double_star() -> sp.ExchangeGraph:
    return sp.build_graph([1, 1, 1, 1], [1, 1, 1, 1], DOUBLE_STAR_EDGES)


@pytest.fixture
def single_edge() -> sp.ExchangeGraph:
    return sp.build_graph([5], [3], [(0, 0, 1)])


def build_quiet(v1_weights, v2_weights, edges, **kwargs) -> sp.ExchangeGraph:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sp.build_graph(v1_weights, v2_weights, edges, **kwargs)


def random_fraction(rng: random.Random, max_num=12, max_den=6) -> Fraction:
    return Fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def random_graph(
    rng: random.Random,
    max_side: int = 7,
    rational_weights: bool = True,
    uniform_weight=None,
    rational_costs: bool = False,
) -> sp.ExchangeGraph:
    """Random connected-enough bipartite instance; always has >= 1 edge."""
    while True:
        n1 = rng.randint(1, max_side)
        n2 = rng.randint(1, max_side)
        density = rng.uniform(0.15, 0.9)
        edges = []
        for i in range(n1):
            for j in range(n2):
                if rng.random() < density:
                    cost = random_fraction(rng) if rational_costs else Fraction(rng.randint(0, 5))
                    edges.append((i, j, cost))
        if not edges:
            continue
        if uniform_weight is not None:
            w1 = [uniform_weight] * n1
            w2 = [uniform_weight] * n2
        elif rational_weights:
            w1 = [random_fraction(rng) for _ in range(n1)]
            w2 = [random_fraction(rng) for _ in range(n2)]
        else:
            w1 = [rng.randint(0, 20) for _ in range(n1)]
            w2 = [rng.randint(0, 20) for _ in range(n2)]
        return build_quiet(w1, w2, edges)


def rational_graph(rng, n1, n2, inertia=True):
    """Random graph with p/q sizes, inertia prices (unless ``inertia`` is
    false) and edge costs."""
    frac = lambda hi: Fraction(rng.randint(0, hi), rng.choice((1, 2, 3, 7, 10)))
    edges = [(i, j, frac(9)) for i in range(n1) for j in range(n2) if rng.random() < 0.35]
    edges = edges or [(0, 0, frac(9))]
    share = 0.3 if inertia else 0
    return build_quiet(
        [frac(40) for _ in range(n1)],
        [frac(40) for _ in range(n2)],
        edges,
        v1_inertia={i: frac(40) for i in range(n1) if rng.random() < share},
        v2_inertia={j: frac(40) for j in range(n2) if rng.random() < share},
    )


def relabelled(g: sp.ExchangeGraph, rng: random.Random) -> sp.ExchangeGraph:
    """``g`` with each side's ids replaced by distinct ids with gaps, in
    shuffled order, one of them (on a random side) past ``2**63``: the
    same sizes, prices and edges at the same positions."""
    ids = [[3 * k + rng.randrange(3) for k in rng.sample(range(10 * len(side)), len(side))] for side in g.ids]
    side = ids[rng.randrange(2)]
    side[rng.randrange(len(side))] = 2**63 + rng.randrange(2**20)
    vertices = [[(i, v.scan_size, v.inertia) for i, v in zip(side_ids, vs)] for side_ids, vs in zip(ids, (g.v1, g.v2))]
    edges = [(ids[0][i], ids[1][j], e.cost) for i, j, e in zip(g.eu.tolist(), g.ev.tolist(), g.edges)]
    return sp.ExchangeGraph.from_vertices(*vertices, edges)


def rescaled(g, size_scale, cost_scale=None):
    """``g`` with every scan size and inertia price times ``size_scale`` and
    every edge cost times ``cost_scale`` (``size_scale`` when None)."""
    cost_scale = size_scale if cost_scale is None else cost_scale
    sides = [
        [(v.vid.index, v.scan_size * size_scale, None if v.inertia is None else v.inertia * size_scale) for v in vs]
        for vs in (g.v1, g.v2)
    ]
    return sp.ExchangeGraph.from_vertices(*sides, [(e.u.index, e.v.index, e.cost * cost_scale) for e in g.edges])


def random_objective(rng: random.Random) -> sp.Objective:
    variant = rng.choice(["p1", "p2", "p3"])
    if variant == "p1":
        return sp.Objective.p1(random_fraction(rng), random_fraction(rng))
    if variant == "p2":
        return sp.Objective.p2()
    return sp.Objective.p3(random_fraction(rng), random_fraction(rng), random_fraction(rng))


def random_admissible_policy(g: sp.ExchangeGraph, rng: random.Random) -> sp.Policy:
    """Random labeling repaired edge-by-edge into a vertex cover."""
    ones = {vid for vid in g.vertex_ids if rng.random() < 0.4}
    for e in g.edges:
        if e.u not in ones and e.v not in ones:
            ones.add(e.u if rng.random() < 0.5 else e.v)
    return sp.Policy(g.vertex_ids, ones)


def ghc_subset_oracle(g: sp.ExchangeGraph, obj: sp.Objective, side: int) -> bool:
    """Literal subset enumeration of the generalized Hall's condition:
    every subset of the chosen side must weigh no more than its
    neighborhood. Exponential; test oracle only."""
    side_ids = g.side_vids(side)
    weight = {vid: effective_weight(g, vid, obj) for vid in g.vertex_ids}
    neighbors = {vid: set() for vid in side_ids}
    for e in g.edges:
        end, other = (e.u, e.v) if side == 1 else (e.v, e.u)
        neighbors[end].add(other)
    for mask in range(1, 1 << len(side_ids)):
        subset = [side_ids[i] for i in range(len(side_ids)) if mask >> i & 1]
        w_s = sum(weight[v] for v in subset)
        neighborhood = set().union(*(neighbors[v] for v in subset))
        w_n = sum(weight[v] for v in neighborhood)
        if w_s > w_n:
            return False
    return True


def subsample(traj: Trajectory, rate_divisor: int) -> Trajectory:
    """Keep every rate_divisor-th pose starting from the first."""
    _check_count("rate_divisor", rate_divisor)
    return Trajectory(traj.poses[::rate_divisor])


def write_kitti_poses(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pose in traj:
            m = np.hstack([pose.rotation, np.reshape(pose.position, (3, 1))])
            fh.write(" ".join(f"{v:.17g}" for v in m.reshape(-1)) + "\n")


def write_feature_counts(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pose in traj:
            fh.write(f"{int(pose.feature_count)}\n")
