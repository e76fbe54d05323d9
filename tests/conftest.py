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
