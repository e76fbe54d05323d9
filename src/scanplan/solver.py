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
fit well inside int32; otherwise the exact engine takes over, so
exactness never depends on magnitudes. Both engines are built from the
same arc arrays. The exact engine pushes one greedy flow along the
edges in Python integers, then searches the residual's sign pattern for
the nodes the source reaches. When the sink is out of reach, the greedy
flow is maximum and those nodes are the cut; otherwise Dinic phases
finish the flow from the greedy one and read the cut off their last
level graph.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

import numpy as np

from .errors import InvariantViolation, NonUniformWeights, ValidationError
from .graph import ExchangeGraph, VertexId, _side_position, _vertex_ids, effective_weight, weight_numerators
from .objectives import Objective, _shown, _shown_ids, as_fraction
from .policy import Policy, _masked_sum, _sent_masks, monolog
from .policy import objective_cost  # noqa: F401  (perfbench/tracing.py wraps scanplan.solver.objective_cost)

# Largest scaled capacity total routed through the compiled engine; above
# this the int32-based engine could overflow, so the big-int path is used.
_INT32_SAFE_TOTAL = 2**30


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


def _min_cut_reachable_dinic(n: int, tails, heads, caps) -> tuple[int, list[int]]:
    """Exact max flow on the cover network with arbitrary-precision integer
    capacities; returns (flow value, source-reachable nodes).

    Arc ``k < n - 2`` is node ``k + 1``'s arc from the source or to the
    sink, and every later arc joins a side-1 node ``u`` to a side-2 node
    ``v`` with a capacity that no flow fills. One greedy pass pushes
    ``min(source residual of u, sink residual of v)`` along each later arc,
    in stable tail order. A breadth-first search of the residual's sign
    pattern (s -> u where u's source residual is positive, every u -> v,
    and v -> u where that arc carries flow) then finds the nodes the source
    reaches. When no reached side-2 node has sink residual left, the sink
    is out of reach: the greedy flow is maximum, and the reached nodes are
    the source side of the source-minimal min cut, which every maximum flow
    shares. Otherwise Dinic phases carry on from the greedy flow."""
    m = n - 2
    eu, ev = tails[m:].tolist(), heads[m:].tolist()
    res = [0, *caps[:m], 0]  # each node's residual on its terminal arc
    carried = [0] * len(eu)
    out = [[] for _ in range(n)]  # each node's arcs in the residual's sign pattern
    for k in np.argsort(tails[m:], kind="stable").tolist():
        u, v = eu[k], ev[k]
        out[u].append(v)
        ru, rv = res[u], res[v]
        if ru and rv:
            push = carried[k] = ru if ru < rv else rv
            res[u] = ru - push
            res[v] = rv - push
            out[v].append(u)
    from_source = tails[:m] == 0
    out[0] = [u for u in heads[:m][from_source].tolist() if res[u]]
    order = [0]
    reached = bytearray(n)
    reached[0] = 1
    for u in order:
        for v in out[u]:
            if not reached[v]:
                reached[v] = 1
                order.append(v)
    flow = sum(carried)
    if not any(res[v] and reached[v] for v in tails[:m][~from_source].tolist()):
        return flow, order
    del eu, ev, out, order, reached  # the phases build their own arc lists
    # residual capacities: arc 2k is network arc k, 2k + 1 its reverse. An
    # edge arc keeps its full capacity: any capacity above the total leaves
    # the same flow value and reachable set, and the arcs share one int.
    cap = [0] * (2 * len(caps))
    cap[0::2] = [*res[1:-1], *caps[m:]]
    cap[1::2] = [*map(operator.sub, caps[:m], res[1:-1]), *carried]
    return _dinic_phases(n, tails, heads, cap, flow)


def _dinic_phases(n: int, tails, heads, cap: list[int], flow: int) -> tuple[int, list[int]]:
    """Dinic's phases from a feasible flow of value ``flow`` to a maximum
    one; returns (flow value, source-reachable nodes).

    Arc ``2k`` of the residual network is network arc ``k`` and ``2k + 1``
    its reverse, so ``eid ^ 1`` pairs them, and ``cap`` holds their
    residual capacities. Each node's arcs are listed in arc order. The
    phases stop when the sink is out of reach, and that last breadth-first
    search has then reached exactly the source side of the source-minimal
    min cut."""
    s, t = 0, n - 1
    to = np.empty(len(cap), np.int64)
    to[0::2], to[1::2] = heads, tails
    tail = np.empty_like(to)
    tail[0::2], tail[1::2] = tails, heads
    by_tail = np.argsort(tail, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(tail, minlength=n)).tolist()
    adj = [by_tail[lo:hi] for lo, hi in zip([0, *bounds], bounds)]
    to = to.tolist()
    while True:
        level = [-1] * n
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            lu = level[u] + 1
            for eid in adj[u]:
                if cap[eid] > 0:
                    v = to[eid]
                    if level[v] < 0:
                        level[v] = lu
                        queue.append(v)
        if level[t] < 0:
            return flow, [v for v in range(n) if level[v] >= 0]
        # push shortest augmenting paths until the phase is blocked
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= bottleneck
                    cap[eid ^ 1] += bottleneck
                flow += bottleneck
                path.clear()
                u = s
                continue
            arcs = adj[u]
            while it[u] < len(arcs):
                eid = arcs[it[u]]
                v = to[eid]
                if cap[eid] > 0 and level[v] == level[u] + 1:
                    path.append(eid)
                    u = v
                    break
                it[u] += 1
            else:
                if u == s:
                    break
                level[u] = -1  # dead end within this phase
                u = to[path.pop() ^ 1]
                it[u] += 1


@dataclass(frozen=True)
class SolveResult:
    """An optimal policy with the dual value certifying its optimality.

    The certificate equals the optimal cost by strong duality on the
    integral cover polytope: a max-flow value for the cut method, the
    matching weight for the uniform fast path, the enumerated minimum for
    brute force, and the per-edge lower bound for the closed form.
    ``matching`` holds the matched pairs when ``method`` is "matching",
    else None.
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

    The graph remembers the result per objective and requested engine, so
    ``solve``, ``check_ghc`` and ``run_rendezvous`` on one graph share one
    min cut. Only a result that passed every check is remembered.
    """
    return _optimal_cover(g, obj, engine)[0]


def _strategy_costs(g: ExchangeGraph, obj: Objective, engine: str | None = None) -> list[Fraction]:
    """The optimal, monolog-1, monolog-2 and full-bidirectional costs of
    ``g`` under ``obj``: the optimum from ``solve``, and each monolog's cost
    as its side's summed vertex weights from the same memo; all 0 on a
    graph without vertices."""
    optimal = solve(g, obj, engine).optimal_cost
    _, weight, den = _optimal_cover(g, obj, engine)
    monolog1, monolog2 = (Fraction(sum(w), den) for w in weight)
    return [optimal, monolog1, monolog2, monolog1 + monolog2]


def _optimal_cover(
    g: ExchangeGraph, obj: Objective, engine: str | None = None
) -> tuple[SolveResult, tuple[list[int], list[int]], int]:
    """``solve``'s result with the weight numerators and denominator it
    was computed from, taken from the graph's memo or computed and stored
    there. Concurrent misses compute equal results; the last write wins."""
    if engine not in (None, "scipy", "dinic"):
        raise ValidationError(f"unknown flow engine {_shown(engine)}")
    key = (obj, engine)
    found = g._covers.get(key)
    if found is None:
        weight, den = weight_numerators(g, obj)
        found = g._covers[key] = (_min_cut_cover(g, weight, den, engine), weight, den)
    return found


def _min_cut_cover(
    g: ExchangeGraph, weight: tuple[list[int], list[int]], den: int, engine: str | None = None
) -> SolveResult:
    """Minimum-weight vertex cover for exact weights (per side, numerators
    over ``den``), read off the source-minimal min cut of the cover
    network. ``engine`` is None, "scipy" or "dinic"."""
    if not g.num_edges:
        empty = Policy._over(g.ids, [np.zeros(len(ids), bool) for ids in g.ids])
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
                f"scaled capacities total {_shown(total, str)} exceeds the compiled engine's "
                "safe range; use the dinic engine"
            )
        max_flow = _min_cut_reachable_scipy
    else:
        max_flow = _min_cut_reachable_dinic
    # node 0 is the source, 1..n1 side 1, then side 2, and n1 + n2 + 1 the sink
    sink = n1 + n2 + 1
    tails = np.concatenate((np.zeros(n1, np.int64), np.arange(1 + n1, sink), 1 + g.eu))
    heads = np.concatenate((np.arange(1, 1 + n1), np.full(n2, sink), 1 + n1 + g.ev))
    caps += [total + 1] * g.num_edges
    flow_value, reach = max_flow(sink + 1, tails, heads, caps)
    reached = np.zeros(sink + 1, dtype=bool)
    reached[list(reach)] = True
    in_cover = ~reached[1 : 1 + n1], reached[1 + n1 : sink]
    cost = Fraction(sum(map(_masked_sum, weight, in_cover)), den)
    certificate = Fraction(flow_value, scale)
    if certificate != cost:
        raise InvariantViolation(f"max-flow value {certificate} differs from cover weight {cost}")
    return SolveResult(Policy._over(g.ids, in_cover), cost, "flow_cut", certificate, engine)


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


def _max_matching(g: ExchangeGraph) -> np.ndarray:
    """A maximum matching by scipy's compiled Hopcroft-Karp: for each
    side-1 position, the matched side-2 position or -1."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    shape = tuple(map(len, g.ids))
    adj = csr_matrix((np.ones(g.num_edges, np.int8), (g.eu, g.ev)), shape=shape)
    return maximum_bipartite_matching(adj, perm_type="column")


def _uniform_scan_weight(g: ExchangeGraph) -> Fraction:
    values = set(g.eff_num[0]) | set(g.eff_num[1])
    if len(values) > 1:
        found = _shown_ids([Fraction(x, g.den) for x in sorted(values)])
        raise NonUniformWeights(f"expected one scan weight, found {found}")
    return Fraction(values.pop(), g.den) if values else Fraction(0)


def solve_uniform_matching(g: ExchangeGraph) -> SolveResult:
    """Optimal communication policy for uniform scan weights (Koenig's
    theorem): the minimum-cardinality cover, read off the source-minimal
    min cut of the unit-weight cover network, with a maximum bipartite
    matching of the same size as its certificate."""
    unit = _uniform_scan_weight(g)
    n1, n2 = map(len, g.ids)
    policy = _min_cut_cover(g, ([1] * n1, [1] * n2), 1).policy
    match = _max_matching(g)
    matched = np.flatnonzero(match >= 0).tolist()
    if len(policy.ones) != len(matched):
        raise InvariantViolation(
            f"Koenig cover has {len(policy.ones)} vertices, matching {len(matched)} edges"
        )
    v1_ids, v2_ids = g.vids
    pairs = tuple((v1_ids[u], v2_ids[v]) for u, v in zip(matched, match[matched].tolist()))
    cost = unit * len(pairs)
    return SolveResult(policy, cost, "matching", cost, matching=pairs)


def check_hall_uniform(g: ExchangeGraph, side: int) -> bool:
    """Whether a matching saturating ``side`` exists (Hall's condition on
    that side): whether a maximum matching has one edge per vertex of that
    side. Requires uniform scan weights."""
    _uniform_scan_weight(g)
    side_size = len(g.side_vids(side))
    return int((_max_matching(g) >= 0).sum()) == side_size


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
    """Decide whether the monolog from ``side`` is optimal under ``obj``.

    The verdict and the witness are read off the optimal cover that
    ``solve(g, obj)`` returns, taken from the same per-graph memo, so both
    sides' certificates and ``solve`` share one min cut.
    """
    s = _side_position(side)
    result, weight, den = _optimal_cover(g, obj)
    monolog_cost = Fraction(sum(weight[s]), den)
    if result.optimal_cost == monolog_cost:
        return GhcCertificate(True, side, monolog_cost, result.optimal_cost)
    # The side vertices left out of the optimal cover form a violating
    # subset: their weight strictly exceeds their neighborhood's.
    in_cover = _sent_masks(g, result.policy)[s]
    ends = (g.eu, g.ev)
    neighborhood = np.zeros(len(g.ids[1 - s]), bool)
    neighborhood[ends[1 - s][~in_cover[ends[s]]]] = True
    witness = frozenset(_vertex_ids(s + 1, compress(g.ids[s], (~in_cover).tolist())))
    w_s = Fraction(_masked_sum(weight[s], ~in_cover), den)
    w_n = Fraction(_masked_sum(weight[1 - s], neighborhood), den)
    if not w_s > w_n:
        raise InvariantViolation(f"witness weight {w_s} <= neighborhood weight {w_n}")
    # keep the side's covered vertices, and send the witness's neighbourhood
    masks = (in_cover, neighborhood) if s == 0 else (neighborhood, in_cover)
    improving = Policy._over(g.ids, masks)
    improving_cost = Fraction(sum(map(_masked_sum, weight, masks)), den)
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
