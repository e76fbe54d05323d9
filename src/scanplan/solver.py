"""Exact solvers for the optimal data exchange problems.

Admissible policies are vertex covers, so every objective variant reduces
to minimum-weight bipartite vertex cover. That problem's LP relaxation is
integral (the constraint matrix is an unoriented incidence matrix, which
is totally unimodular), and the integral optimum is found here as a
minimum s-t cut on the standard cover network:

    source -> side-1 vertex  with capacity = vertex weight
    side-2 vertex -> sink    with capacity = vertex weight
    side-1 -> side-2         with effectively infinite capacity per edge

Weights arrive as integer numerators over one denominator, in lowest
terms, and the numerators are the capacities. Flows are computed
in exact integer arithmetic, and the cover is read off the unique
source-minimal min cut, which makes the returned policy independent of
the flow engine used. A compiled engine (scipy) is used when capacities
fit well inside int32; otherwise the exact engine takes over, so
exactness never depends on magnitudes. Both engines read the same arc
arrays and terminal capacities. No flow fills an edge arc: the compiled
engine writes it a capacity above the terminal total into its own int64
capacity array, and the exact engine stores none. The exact engine keeps
one residual network of node residuals, edge flows and per-node edge
lists, in Python integers. A greedy pass pushes flow along each edge,
then one breadth-first search levels the nodes the source reaches: when
the sink is out of reach those nodes are the cut, and otherwise a Dinic
phase pushes a blocking flow along the levels on the same network and
the search runs again.

Many cuts can share one compiled max flow: the cover networks of a
sweep's points are joined at one source and one sink, packed in order
while their capacities total less than 2^30 and they hold at most
``_MAX_JOINED_ARCS`` arcs. Components share only the two terminals, so
each point's cover is read off the shared source-minimal cut, and a flow
value equal to the summed cut capacities proves every cut minimum. A
single cut is such a network of one component; each exact-engine cut
keeps a network of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import InvariantViolation, NonUniformWeights, ValidationError
from .graph import ExchangeGraph, VertexId, _checked_graph, _side_position, effective_weight, weight_numerators
from .objectives import Objective, _shown, _shown_ids, as_fraction
from .policy import Policy, _masked_sum, _sent_masks, monolog
from .policy import objective_cost  # noqa: F401  (perfbench/tracing.py wraps scanplan.solver.objective_cost)

# Largest capacity total routed through the compiled engine; above
# this the int32-based engine could overflow, so the big-int path is used.
_INT32_SAFE_TOTAL = 2**30


def _min_cut_reachable_scipy(n: int, tails, heads, caps) -> tuple[int, np.ndarray]:
    """Compiled max flow on the cover network; returns (flow value,
    source-reachable nodes). ``caps`` holds the ``n - 2`` terminal arcs'
    capacities; every later arc gets one more than their total, which no
    flow fills."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    m = n - 2
    data = np.empty(len(tails), dtype=np.int64)
    data[:m] = caps
    data[m:] = data[:m].sum() + 1
    cap = csr_matrix((data, (tails, heads)), shape=(n, n))
    result = maximum_flow(cap, 0, n - 1)
    residual = cap - result.flow  # reverse arcs appear as positive entries
    residual.eliminate_zeros()
    order = breadth_first_order(residual, 0, directed=True, return_predecessors=False)
    return int(result.flow_value), order


def _min_cut_reachable_dinic(n: int, tails, heads, caps) -> tuple[int, list[int]]:
    """Exact max flow on the cover network with arbitrary-precision integer
    capacities; returns (flow value, source-reachable nodes).

    Arc ``k < n - 2`` is node ``k + 1``'s arc from the source or to the
    sink, with capacity ``caps[k]``; the side-1 nodes (those with an arc
    from the source) come first, and every later arc joins a side-1 node
    ``u`` to a side-2 node ``v`` with a capacity that no flow fills. The
    residual network is each node's residual on its terminal arc
    (``res``), each edge's flow (``carried``) and each node's edge
    indices: its arcs are s -> u while ``res[u]``, every u -> v, v -> u
    while the edge carries flow, and v -> t while ``res[v]``. A greedy
    pass pushes ``min(res[u], res[v])`` along each edge, in stable tail
    order. Then a breadth-first search levels the nodes the source
    reaches. When the sink is out of reach, the flow is maximum and those
    nodes are the source side of the source-minimal min cut, which every
    maximum flow shares; otherwise a Dinic phase pushes a blocking flow
    and the search runs again."""
    m = n - 2
    n1 = m - int(np.count_nonzero(tails[:m]))
    eu, ev = tails[m:].tolist(), heads[m:].tolist()
    res = [0, *caps.tolist(), 0]
    carried = [0] * len(eu)
    edges = [[] for _ in range(n)]
    for k in np.argsort(tails[m:], kind="stable").tolist():
        u, v = eu[k], ev[k]
        edges[u].append(k)
        edges[v].append(k)
        ru, rv = res[u], res[v]
        if ru and rv:
            push = carried[k] = ru if ru < rv else rv
            res[u] = ru - push
            res[v] = rv - push
    flow = sum(carried)
    while True:
        starts = [u for u in range(1, n1 + 1) if res[u]]
        level = [-1] * n
        level[0] = 0
        for u in starts:
            level[u] = 1
        order = [0, *starts]
        top = 0  # the level of the side-2 nodes next to the sink, once reached
        for x in order:
            lx = level[x] + 1
            if x <= n1:
                for k in edges[x]:
                    v = ev[k]
                    if level[v] < 0:
                        level[v] = lx
                        order.append(v)
            elif res[x]:
                top = lx - 1
                break
            else:
                for k in edges[x]:
                    if carried[k]:
                        u = eu[k]
                        if level[u] < 0:
                            level[u] = lx
                            order.append(u)
        if not top:
            return flow, order
        flow += _blocking_flow(n1, starts, level, top, res, carried, edges, eu, ev)


def _blocking_flow(n1: int, starts, level, top: int, res, carried, edges, eu, ev) -> int:
    """One Dinic phase on the exact engine's residual network: pushes
    paths from the ``starts`` along ``level`` to the sink, depth first,
    until the level graph is blocked; returns the flow pushed.

    A path leaves its start along an edge and then alternates backward and
    forward edges, so its bottleneck is the least of the start's and the
    end's residuals and the flows of its backward edges."""
    pushed = 0
    it = [0] * len(level)
    for start in starts:
        path: list[int] = []
        x = start
        while res[start]:
            lx = level[x] + 1
            if lx > top:  # a side-2 node at the sink's level
                if res[x]:
                    back = path[1::2]
                    push = min(res[start], res[x], *(carried[k] for k in back))
                    res[start] -= push
                    res[x] -= push
                    for k in path[0::2]:
                        carried[k] += push
                    for k in back:
                        carried[k] -= push
                    pushed += push
                    path.clear()
                    x = start
                    continue
            else:
                ks = edges[x]
                i = it[x]
                if x <= n1:
                    while i < len(ks) and level[ev[ks[i]]] != lx:
                        i += 1
                else:
                    while i < len(ks) and not (carried[ks[i]] and level[eu[ks[i]]] == lx):
                        i += 1
                it[x] = i
                if i < len(ks):
                    k = ks[i]
                    path.append(k)
                    x = ev[k] if x <= n1 else eu[k]
                    continue
            level[x] = -1  # dead end within this phase
            if not path:
                break
            k = path.pop()
            x = eu[k] if x > n1 else ev[k]
            it[x] += 1
    return pushed


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
    the compiled backend is used whenever the capacities are safely
    inside int32 range. Both backends return the same policy because the
    cover is extracted from the source-minimal min cut, which is unique
    across all maximum flows.

    The graph remembers the result per objective and requested engine, so
    ``solve``, ``check_ghc`` and ``run_rendezvous`` on one graph share one
    min cut. Only a result that passed every check is remembered.
    """
    return _optimal_cover(g, obj, engine)[0]


def _strategy_costs(result: SolveResult, weight: tuple[np.ndarray, np.ndarray], den: int) -> list[Fraction]:
    """The optimal, monolog-1, monolog-2 and full-bidirectional costs of
    the cut ``result``, each monolog's as its side's summed numerators of
    the ``weight`` the cut was computed from; all 0 without vertices."""
    monolog1, monolog2 = (Fraction(int(w.sum()), den) for w in weight)
    return [result.optimal_cost, monolog1, monolog2, monolog1 + monolog2]


def _optimal_cover(
    g: ExchangeGraph, obj: Objective, engine: str | None = None
) -> tuple[SolveResult, tuple[np.ndarray, np.ndarray], int]:
    """``solve``'s result with the weight numerators and denominator it
    was computed from, as the graph's memo holds them per objective and
    requested engine: the one reader and writer of the memo, which stores
    a :func:`_min_cut_covers` cut once it passed every check."""
    _checked_graph(g)
    if engine not in (None, "scipy", "dinic"):
        raise ValidationError(f"unknown flow engine {_shown(engine)}")
    if (obj, engine) not in g._covers:
        weight, den = weight_numerators(g, obj)
        [(_, result)] = _min_cut_covers([(g, weight, den)], engine)
        g._covers[obj, engine] = (result, weight, den)
    return g._covers[obj, engine]


# Most arcs of one joined cover network: the compiled engine's jobs are
# packed into networks of at most this many arcs, so that a long sweep
# never builds one huge network; a job with more arcs is cut alone.
_MAX_JOINED_ARCS = 2**17


def _min_cut_covers(jobs, engine: str | None = None) -> Iterator[tuple[tuple, SolveResult]]:
    """Minimum-weight vertex covers for exact weights: reads the jobs
    ``(graph, per-side weight numerators, denominator)`` as they arrive and
    yields ``(job, cover)`` in job order, each cover read off the
    source-minimal min cut of the job's cover network. Jobs arrive in
    lowest terms, as :func:`weight_numerators` returns them and as unit
    weights over 1 are, so each job's numerators are its capacities.
    ``engine`` is None, "scipy" or "dinic"; by default a job takes the
    compiled engine when its capacities total less than
    ``_INT32_SAFE_TOTAL``.

    The compiled engine's jobs are packed in order into joined networks
    (see :func:`_joined_covers`) whose capacities total less than
    ``_INT32_SAFE_TOTAL`` and which hold at most ``_MAX_JOINED_ARCS`` arcs,
    each cut once the next such job does not join it. Each exact-engine
    job is cut at once on a network of its own: a Dinic phase spans its
    whole network, so a joined one would make every component pay the
    phases of the slowest. Such a job, and an edgeless one, which needs no
    cut, is yielded in order after the network pending before it."""
    held, joined_total, joined_arcs = [], 0, 0  # (job, cover, or None while its network is pending)
    for job in jobs:
        g, weight, _ = job
        total = sum(int(w.sum()) for w in weight)
        cover = None
        if not g.num_edges:
            empty = Policy._over(g.ids, [np.zeros(len(ids), bool) for ids in g.ids])
            cover = SolveResult(empty, Fraction(0), "flow_cut", Fraction(0), engine or "none")
        elif (engine or ("scipy" if total < _INT32_SAFE_TOTAL else "dinic")) == "dinic":
            [cover] = _joined_covers("dinic", [job])
        elif total >= _INT32_SAFE_TOTAL:
            # the compiled engine casts to int32 and would corrupt silently
            raise ValidationError(
                f"scaled capacities total {_shown(total, str)} exceeds the compiled engine's "
                "safe range; use the dinic engine"
            )
        else:
            arcs = len(weight[0]) + len(weight[1]) + g.num_edges
            if joined_arcs and (joined_total + total >= _INT32_SAFE_TOTAL or joined_arcs + arcs > _MAX_JOINED_ARCS):
                yield from _released(held)
                held, joined_total, joined_arcs = [], 0, 0
            joined_total += total
            joined_arcs += arcs
        held.append((job, cover))
    yield from _released(held)


def _released(held) -> Iterator[tuple[tuple, SolveResult]]:
    """``held``, each pending cover read off the pending jobs' network."""
    joined = [job for job, cover in held if cover is None]
    covers = iter(_joined_covers("scipy", joined) if joined else ())
    for job, cover in held:
        yield job, cover if cover is not None else next(covers)


def _joined_covers(engine: str, jobs) -> list[SolveResult]:
    """The covers of ``jobs`` ``(graph, weight, den)`` from one max flow on
    ``engine`` over their cover networks joined at one source (node 0) and
    one sink: every job's side-1 nodes in order, then every job's side-2
    nodes, then the sink.

    Components share only the source and the sink, so the source-minimal
    cut of the joined network is every component's own, and each cover is
    read off the one reach mask at its component's offsets. By weak
    duality each component's flow is at most its cut's capacity, so a flow
    value equal to the summed capacities proves every cut minimum; each
    cover's cost and certificate is then its cut capacity over its
    denominator."""
    sizes = [tuple(map(len, weight)) for _, weight, _ in jobs]
    n1, n2 = map(sum, zip(*sizes))
    sink = n1 + n2 + 1
    # each component's first side-1 and first side-2 node
    first1 = list(accumulate((s1 for s1, _ in sizes), initial=1))
    first2 = list(accumulate((s2 for _, s2 in sizes), initial=1 + n1))
    tails = np.concatenate(
        (np.zeros(n1, np.int64), np.arange(1 + n1, sink), *(a + g.eu for a, (g, _, _) in zip(first1, jobs)))
    )
    heads = np.concatenate(
        (np.arange(1, 1 + n1), np.full(n2, sink), *(b + g.ev for b, (g, _, _) in zip(first2, jobs)))
    )
    caps = np.concatenate([weight[side] for side in (0, 1) for _, weight, _ in jobs])
    max_flow = _min_cut_reachable_scipy if engine == "scipy" else _min_cut_reachable_dinic
    flow_value, reach = max_flow(sink + 1, tails, heads, caps)
    reached = np.zeros(sink + 1, dtype=bool)
    reached[reach] = True
    covers = [(~reached[a : a + s1], reached[b : b + s2]) for a, b, (s1, s2) in zip(first1, first2, sizes)]
    cuts = [sum(map(_masked_sum, weight, cover)) for (_, weight, _), cover in zip(jobs, covers)]
    if flow_value != sum(cuts):
        if len(jobs) == 1:
            den = jobs[0][2]
            raise InvariantViolation(
                f"max-flow value {Fraction(flow_value, den)} differs from cover weight {Fraction(cuts[0], den)}"
            )
        raise InvariantViolation(
            f"max-flow value {flow_value} of {len(jobs)} joined cover networks "
            f"differs from their cut capacity {sum(cuts)}"
        )
    results = []
    for (g, _, den), in_cover, cut in zip(jobs, covers, cuts):
        cost = Fraction(cut, den)
        results.append(SolveResult(Policy._over(g.ids, in_cover), cost, "flow_cut", cost, engine))
    return results


def solve_brute_force(g: ExchangeGraph, obj: Objective) -> SolveResult:
    """Exhaustive minimum over all 2^|V| labelings; the independent oracle
    for the polynomial solvers. Only usable on small graphs."""
    _checked_graph(g)
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
    _checked_graph(g)
    values = set(g.eff_num[0].tolist()) | set(g.eff_num[1].tolist())
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
    unit_weight = (np.ones(n1, np.int64), np.ones(n2, np.int64))
    policy = next(_min_cut_covers([(g, unit_weight, 1)]))[1].policy
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
    side_size = len(g.ids[_side_position(side)])
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

    ``witness`` reads as a frozenset of vertex ids, also in ==, hash and
    repr. ``check_ghc`` hands it over as the policy over its graph that
    sends exactly the witness, one mask per side, so the frozenset is
    built on the first read, as ``Policy`` builds its own.
    """

    holds: bool
    side: int
    monolog_cost: Fraction
    optimal_cost: Fraction
    witness: frozenset[VertexId] | None = None
    witness_weight: Fraction | None = None
    neighborhood_weight: Fraction | None = None
    improving_policy: Policy | None = None


def _held_witness(cert: GhcCertificate) -> frozenset[VertexId] | None:
    held = cert.__dict__["_witness"]
    return held.ones if isinstance(held, Policy) else held


def _hold_witness(cert: GhcCertificate, witness) -> None:
    cert.__dict__["_witness"] = witness


# the dataclass's __init__ stores the witness through the setter
GhcCertificate.witness = property(_held_witness, _hold_witness)


def check_ghc(g: ExchangeGraph, obj: Objective, side: int) -> GhcCertificate:
    """Decide whether the monolog from ``side`` is optimal under ``obj``.

    The verdict and the witness are read off the optimal cover that
    ``solve(g, obj)`` returns, taken from the same per-graph memo, so both
    sides' certificates and ``solve`` share one min cut.
    """
    s = _side_position(side)
    result, weight, den = _optimal_cover(g, obj)
    monolog_cost = _strategy_costs(result, weight, den)[1 + s]
    if result.optimal_cost == monolog_cost:
        return GhcCertificate(True, side, monolog_cost, result.optimal_cost)
    # The side vertices left out of the optimal cover form a violating
    # subset: their weight strictly exceeds their neighborhood's.
    in_cover = _sent_masks(g, result.policy)[s]
    ends = (g.eu, g.ev)
    neighborhood = np.zeros(len(g.ids[1 - s]), bool)
    neighborhood[ends[1 - s][~in_cover[ends[s]]]] = True
    w_s = Fraction(_masked_sum(weight[s], ~in_cover), den)
    w_n = Fraction(_masked_sum(weight[1 - s], neighborhood), den)
    if not w_s > w_n:
        raise InvariantViolation(f"witness weight {w_s} <= neighborhood weight {w_n}")
    # keep the side's covered vertices, and send the witness's neighbourhood:
    # the monolog's cost less w_s plus w_n, strictly less than the monolog's
    masks = (in_cover, neighborhood) if s == 0 else (neighborhood, in_cover)
    improving = Policy._over(g.ids, masks)
    # the witness, as the policy that sends exactly its vertices
    outside = np.zeros(len(g.ids[1 - s]), bool)
    witness = Policy._over(g.ids, (~in_cover, outside) if s == 0 else (outside, ~in_cover))
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
    _checked_graph(g)
    alpha1 = as_fraction(alpha1)
    alpha2 = as_fraction(alpha2)
    if not g.num_edges:
        return SolveResult(Policy(g.vertex_ids, ()), Fraction(0), "closed_form", Fraction(0))
    source = 1 if alpha1 >= alpha2 else 2
    policy = monolog(g, source)
    cost = min(alpha1, alpha2) * g.total_edge_cost()
    return SolveResult(policy, cost, "closed_form", cost)
