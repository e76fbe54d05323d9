"""Exact solvers for the optimal data exchange problems.

Admissible policies are vertex covers, so every objective variant reduces
to minimum-weight bipartite vertex cover. That problem's LP relaxation is
integral (the constraint matrix is an unoriented incidence matrix, which
is totally unimodular), and the integral optimum is found here as a
minimum s-t cut on the standard cover network:

    source -> side-1 vertex  with capacity = vertex weight
    side-2 vertex -> sink    with capacity = vertex weight
    side-1 -> side-2         with effectively infinite capacity per edge

Weights are scaled to integers (LCM of denominators), flows are computed
in exact integer arithmetic, and the cover is read off the unique
source-minimal min cut, which makes the returned policy independent of
the flow engine used. A compiled engine (scipy) is used when capacities
fit well inside int32; otherwise a pure-Python Dinic with unbounded
integers takes over, so exactness never depends on magnitudes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .errors import InvariantViolation, NonUniformWeights, ValidationError
from .graph import ExchangeGraph, VertexId, effective_weight, weight_numerators
from .objectives import Objective, as_fraction
from .policy import Policy, monolog, objective_cost

# Largest scaled capacity total routed through the compiled engine; above
# this the int32-based engine could overflow, so the big-int path is used.
_INT32_SAFE_TOTAL = 2**30


class _Dinic:
    """Max flow with arbitrary-precision integer capacities."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque([s])
        to, cap, adj = self.to, self.cap, self.adj
        while queue:
            u = queue.popleft()
            lu = level[u] + 1
            for eid in adj[u]:
                if cap[eid] > 0:
                    v = to[eid]
                    if level[v] < 0:
                        level[v] = lu
                        queue.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push one shortest augmenting path; 0 when the phase is done."""
        to, cap, adj = self.to, self.cap, self.adj
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= bottleneck
                    cap[eid ^ 1] += bottleneck
                return bottleneck
            advanced = False
            arcs = adj[u]
            while it[u] < len(arcs):
                eid = arcs[it[u]]
                v = to[eid]
                if cap[eid] > 0 and level[v] == level[u] + 1:
                    path.append(eid)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    return 0
                level[u] = -1  # dead end within this phase
                eid = path.pop()
                u = self.to[eid ^ 1]
                it[u] += 1

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        to, cap, adj = self.to, self.cap, self.adj
        while queue:
            u = queue.popleft()
            for eid in adj[u]:
                if cap[eid] > 0:
                    v = to[eid]
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
        return seen


def _min_cut_reachable_scipy(n: int, tails, heads, caps) -> tuple[int, set[int]]:
    """Compiled max-flow path; returns (flow value, source-reachable set)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    cap = csr_matrix((caps, (tails, heads)), shape=(n, n), dtype=np.int64)
    result = maximum_flow(cap, 0, n - 1)
    residual = cap - result.flow  # reverse arcs appear as positive entries
    residual.eliminate_zeros()
    order = breadth_first_order(residual, 0, directed=True, return_predecessors=False)
    return int(result.flow_value), set(order.tolist())


def _min_cut_reachable_dinic(n: int, tails, heads, caps) -> tuple[int, set[int]]:
    dinic = _Dinic(n)
    for arc in zip(np.asarray(tails).tolist(), np.asarray(heads).tolist(), caps):
        dinic.add_edge(*arc)
    return dinic.max_flow(0, n - 1), dinic.reachable(0)


@dataclass(frozen=True)
class SolveResult:
    """An optimal policy with the dual value certifying its optimality.

    The certificate equals the optimal cost by strong duality on the
    integral cover polytope: a max-flow value for the cut method, the
    matching weight for the uniform fast path, the enumerated minimum for
    brute force, and the per-edge lower bound for the closed form.
    """

    policy: Policy
    optimal_cost: Fraction
    method: str  # flow_cut | matching | brute_force | closed_form
    certificate: Fraction
    engine: str = ""
    matching: tuple[tuple[VertexId, VertexId], ...] | None = None


def solve(g: ExchangeGraph, obj: Objective, engine: str | None = None) -> SolveResult:
    """Minimum-cost admissible policy under ``obj``, exactly.

    ``engine`` forces the flow backend ("scipy" or "dinic"); by default
    the compiled backend is used whenever the scaled capacities are safely
    inside int32 range. Both backends return the same policy because the
    cover is extracted from the source-minimal min cut, which is unique
    across all maximum flows.
    """
    weight, den = weight_numerators(g, obj)
    return _min_cut_cover(g, weight, den, engine)


def _min_cut_cover(
    g: ExchangeGraph, weight: tuple[list[int], list[int]], den: int, engine: str | None = None
) -> SolveResult:
    """Minimum-weight vertex cover for exact weights (per side, numerators
    over ``den``), read off the source-minimal min cut of the cover
    network."""
    if not g.num_edges:
        empty = Policy(g.vertex_ids, ())
        return SolveResult(empty, Fraction(0), "flow_cut", Fraction(0), engine or "none")
    w1, w2 = weight
    n1, n2 = len(w1), len(w2)
    # Capacities are the weights over the LCM of their reduced denominators,
    # which is den divided by the gcd of den and every numerator.
    common = math.gcd(den, *w1, *w2)
    scale = den // common
    caps = [w // common for w in w1] + [w // common for w in w2]
    total = sum(caps)
    if engine is None:
        engine = "scipy" if total < _INT32_SAFE_TOTAL else "dinic"
    if engine == "scipy":
        if total >= _INT32_SAFE_TOTAL:
            # the compiled engine casts to int32 and would corrupt silently
            raise ValidationError(
                f"scaled capacities total {total} exceeds the compiled engine's "
                "safe range; use the dinic engine"
            )
        max_flow = _min_cut_reachable_scipy
    elif engine == "dinic":
        max_flow = _min_cut_reachable_dinic
    else:
        raise ValidationError(f"unknown flow engine {engine!r}")
    # node 0 is the source, 1..n1 side 1, then side 2, and n1 + n2 + 1 the sink
    sink = n1 + n2 + 1
    tails = np.concatenate((np.zeros(n1, np.int64), np.arange(1 + n1, sink), 1 + g.eu))
    heads = np.concatenate((np.arange(1, 1 + n1), np.full(n2, sink), 1 + n1 + g.ev))
    caps += [total + 1] * g.num_edges
    flow_value, reach = max_flow(sink + 1, tails, heads, caps)
    reached = np.zeros(sink + 1, dtype=bool)
    reached[list(reach)] = True
    in_cover = (~reached[1 : 1 + n1]).tolist(), reached[1 + n1 : sink].tolist()
    cost = Fraction(sum(compress(w1, in_cover[0])) + sum(compress(w2, in_cover[1])), den)
    certificate = Fraction(flow_value, scale)
    if certificate != cost:
        raise InvariantViolation(f"max-flow value {certificate} differs from cover weight {cost}")
    cover = [*compress(g.vids[0], in_cover[0]), *compress(g.vids[1], in_cover[1])]
    return SolveResult(Policy(g.vertex_ids, cover), cost, "flow_cut", certificate, engine)


def solve_brute_force(g: ExchangeGraph, obj: Objective) -> SolveResult:
    """Exhaustive minimum over all 2^|V| labelings; the independent oracle
    for the polynomial solvers. Only usable on small graphs."""
    # The oracle numbers vertices itself, not through the solvers' shared
    # numbering, so that it stays independent of the code it checks.
    vids = sorted(g.vertex_ids)
    n = len(vids)
    if n > 22:
        raise ValidationError(f"brute force limited to 22 vertices, got {n}")
    exact = {vid: effective_weight(g, vid, obj) for vid in vids}
    scale = math.lcm(*(w.denominator for w in exact.values()))
    pos = {vid: i for i, vid in enumerate(vids)}
    full = (1 << len(g.edges)) - 1
    edge_bit = [0] * n
    for ei, e in enumerate(g.edges):
        edge_bit[pos[e.u]] |= 1 << ei
        edge_bit[pos[e.v]] |= 1 << ei
    int_w = [exact[vid].numerator * (scale // exact[vid].denominator) for vid in vids]
    size = 1 << n
    covered = [0] * size
    weight = [0] * size
    best_weight, best_mask = (0, 0) if full == 0 else (None, None)
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        covered[mask] = covered[rest] | edge_bit[i]
        weight[mask] = weight[rest] + int_w[i]
        if covered[mask] == full and (best_weight is None or weight[mask] < best_weight):
            best_weight, best_mask = weight[mask], mask
    ones = [vids[i] for i in range(n) if best_mask >> i & 1]
    policy = Policy(g.vertex_ids, ones)
    cost = Fraction(best_weight, scale)
    return SolveResult(policy, cost, "brute_force", cost)


# -- uniform-weight fast path ----------------------------------------------


def _adjacency_by_index(
    g: ExchangeGraph, swap: bool = False
) -> tuple[tuple[VertexId, ...], tuple[VertexId, ...], list[list[int]]]:
    """The matcher's view of a graph: the first side's ids, the second
    side's ids, and each first-side position's neighbour positions in
    ascending order. ``swap`` gives side 2 the first role."""
    first, second = (g.ev, g.eu) if swap else (g.eu, g.ev)
    first_ids, second_ids = g.vids[::-1] if swap else g.vids
    order = np.lexsort((second, first))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(first, minlength=len(first_ids))))).tolist()
    neighbours = second[order].tolist()
    adj = [neighbours[bounds[k] : bounds[k + 1]] for k in range(len(first_ids))]
    return first_ids, second_ids, adj


def _max_matching(adj: list[list[int]], n2: int) -> tuple[list[int], list[int]]:
    """Augmenting-path maximum matching; returns (match1, match2) with -1
    for unmatched. Deterministic given adjacency order: from each side-1
    vertex in turn, a depth-first search tries neighbours in adjacency
    order. The search keeps its own stack, so the length of an alternating
    path is not bounded by the interpreter's recursion limit."""
    n1 = len(adj)
    match1 = [-1] * n1
    match2 = [-1] * n2
    seen = [-1] * n2  # the root whose search last reached each side-2 vertex
    for root in range(n1):
        # the alternating path so far: side-1 vertices, each with the rest
        # of its neighbours still to try, and the side-2 vertices between
        path = [(root, iter(adj[root]))]
        via: list[int] = []
        while path:
            for v in path[-1][1]:
                if seen[v] != root:
                    break
            else:  # dead end: resume the parent's neighbours
                path.pop()
                if via:
                    via.pop()
                continue
            seen[v] = root
            via.append(v)
            if match2[v] == -1:
                for (u, _), w in zip(path, via):
                    match1[u] = w
                    match2[w] = u
                break
            path.append((match2[v], iter(adj[match2[v]])))
    return match1, match2


def _koenig_cover(adj: list[list[int]], match1: list[int], match2: list[int]) -> tuple[set[int], set[int]]:
    """Minimum vertex cover from a maximum matching: alternating-path
    reachability Z from unmatched side-1 vertices gives (V1 \\ Z, V2 & Z)."""
    n1 = len(match1)
    visited1 = {u for u in range(n1) if match1[u] == -1}
    visited2: set[int] = set()
    queue = deque(sorted(visited1))
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v == match1[u] or v in visited2:
                continue
            visited2.add(v)
            w = match2[v]
            if w != -1 and w not in visited1:
                visited1.add(w)
                queue.append(w)
    cover1 = {u for u in range(n1) if u not in visited1}
    return cover1, visited2


def _uniform_scan_weight(g: ExchangeGraph) -> Fraction:
    values = set(g.eff_num[0]) | set(g.eff_num[1])
    if len(values) > 1:
        found = sorted(Fraction(x, g.den) for x in values)
        raise NonUniformWeights(f"expected one scan weight, found {found}")
    return Fraction(values.pop(), g.den) if values else Fraction(0)


def solve_uniform_matching(g: ExchangeGraph) -> SolveResult:
    """Optimal communication policy for uniform scan weights, built
    directly from a maximum bipartite matching (Koenig's theorem)."""
    unit = _uniform_scan_weight(g)
    if not g.num_edges:
        return SolveResult(Policy(g.vertex_ids, ()), Fraction(0), "matching", Fraction(0))
    v1_ids, v2_ids, adj = _adjacency_by_index(g)
    match1, match2 = _max_matching(adj, len(v2_ids))
    cover1, cover2 = _koenig_cover(adj, match1, match2)
    ones = [v1_ids[i] for i in sorted(cover1)] + [v2_ids[j] for j in sorted(cover2)]
    policy = Policy(g.vertex_ids, ones)
    size = sum(1 for v in match1 if v != -1)
    if len(ones) != size:
        raise InvariantViolation(f"Koenig cover has {len(ones)} vertices, matching {size} edges")
    matched_pairs = tuple(
        (v1_ids[u], v2_ids[match1[u]]) for u in range(len(match1)) if match1[u] != -1
    )
    cost = unit * size
    return SolveResult(policy, cost, "matching", cost, matching=matched_pairs)


def check_hall_uniform(g: ExchangeGraph, side: int) -> bool:
    """Whether a matching saturating ``side`` exists (Hall's condition on
    that side). Requires uniform scan weights."""
    _uniform_scan_weight(g)
    if side not in (1, 2):
        raise ValidationError(f"robot side must be 1 or 2, got {side}")
    _, v2_ids, adj = _adjacency_by_index(g, swap=side == 2)
    match1, _ = _max_matching(adj, len(v2_ids))
    return all(v != -1 for v in match1)


# -- monolog optimality ------------------------------------------------------


@dataclass(frozen=True)
class GhcCertificate:
    """Outcome of the monolog-optimality test for one side.

    Transmitting everything from ``side`` is optimal iff every subset S of
    that side weighs no more than its neighborhood. When that fails, a
    violating subset is read off the min cut, together with a strictly
    cheaper admissible policy that keeps (side minus S) and switches to
    transmitting S's neighborhood instead.
    """

    holds: bool
    side: int
    monolog_cost: Fraction
    optimal_cost: Fraction
    witness: frozenset[VertexId] | None = None
    witness_weight: Fraction | None = None
    neighborhood_weight: Fraction | None = None
    improving_policy: Policy | None = None


def check_ghc(g: ExchangeGraph, obj: Objective, side: int) -> GhcCertificate:
    """Decide whether the monolog from ``side`` is optimal under ``obj``."""
    side_ids = g.side_vids(side)
    s = side - 1
    weight, den = weight_numerators(g, obj)
    monolog_cost = Fraction(sum(weight[s]), den)
    result = _min_cut_cover(g, weight, den)
    if result.optimal_cost == monolog_cost:
        return GhcCertificate(True, side, monolog_cost, result.optimal_cost)
    # The side vertices left out of the optimal cover form a violating
    # subset: their weight strictly exceeds their neighborhood's.
    in_cover = g.label_masks(result.policy.ones)[s]
    ends = (g.eu, g.ev)
    neighbours = np.unique(ends[1 - s][~in_cover[ends[s]]]).tolist()
    out_of_cover = (~in_cover).tolist()
    witness = frozenset(compress(side_ids, out_of_cover))
    neighborhood = sorted(g.vids[1 - s][j] for j in neighbours)
    w_s = Fraction(sum(compress(weight[s], out_of_cover)), den)
    w_n = Fraction(sum(weight[1 - s][j] for j in neighbours), den)
    if not w_s > w_n:
        raise InvariantViolation(f"witness weight {w_s} <= neighborhood weight {w_n}")
    kept = list(compress(side_ids, in_cover.tolist()))
    improving = Policy(g.vertex_ids, kept + neighborhood)
    improving_cost = objective_cost(g, improving, obj)
    if not improving_cost < monolog_cost:
        raise InvariantViolation(f"improving cost {improving_cost} >= monolog cost {monolog_cost}")
    return GhcCertificate(
        False,
        side,
        monolog_cost,
        result.optimal_cost,
        witness=witness,
        witness_weight=w_s,
        neighborhood_weight=w_n,
        improving_policy=improving,
    )


def p1_closed_form(g: ExchangeGraph, alpha1=1, alpha2=1) -> SolveResult:
    """Optimal workload-objective policy in closed form: the monolog from
    the side with the larger alpha. Every edge must be verified by at
    least one robot at a price of at least min(alpha1, alpha2) times its
    cost, and that monolog meets the bound with equality."""
    alpha1 = as_fraction(alpha1)
    alpha2 = as_fraction(alpha2)
    if not g.num_edges:
        return SolveResult(Policy(g.vertex_ids, ()), Fraction(0), "closed_form", Fraction(0))
    source = 1 if alpha1 >= alpha2 else 2
    policy = monolog(g, source)
    cost = min(alpha1, alpha2) * g.total_edge_cost()
    return SolveResult(policy, cost, "closed_form", cost)
