"""The division of labour an admissible policy induces, and the
broker-mediated rendezvous that carries it out with byte-accurate
accounting.

A policy's division of labour assigns each candidate edge to the robots
that received the other endpoint's scan (:func:`workloads`) and fixes the
order the transmitted scans go in (:func:`execute_order`). The exchange
session runs six deterministic rounds: both robots send compact per-pose
metadata to the broker, the broker solves for the cheapest complete-search
policy and returns it, the robots execute the policy by exchanging scans,
each verifies its assigned candidate edges against the simulated ground
truth, and finally the robots swap the loop closures the other one could
not have discovered itself. Edges whose both endpoints were transmitted
are verified redundantly by both robots on purpose; those discoveries
never need a closure message.

Actors are simulated in-process ("robot1", "robot2", "broker"); traces
are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from numbers import Integral, Real
from typing import Iterator, NamedTuple

import numpy as np

from .errors import GroundTruthOutsideCandidates, InadmissiblePolicy, ValidationError
from .graph import EdgeKey, ExchangeGraph, VertexId, _checked_graph, _rational_texts, _vertex_ids, format_rational
from .objectives import Objective, _shown, _shown_ids, as_fraction
from .policy import (
    Policy,
    _masked_sum,
    _sent_masks,
    full_bidirectional,
    is_admissible,  # noqa: F401  (perfbench/tracing.py wraps scanplan.protocol.is_admissible)
    monolog,
)
from .solver import solve


# -- division of labour ------------------------------------------------------


class WorkloadReport(NamedTuple):
    """Partition of the candidate set induced by an admissible policy.

    ``l1_edges`` is the set robot 1 must verify (edges whose side-2
    endpoint transmitted), ``l2_edges`` symmetrically; their intersection
    ``l12_edges`` is verified redundantly by both robots, on purpose.
    ``ell1``/``ell2`` are the per-robot verification costs and
    ``f_balance`` their alpha-weighted combination.
    """

    l1_edges: frozenset[EdgeKey]
    l2_edges: frozenset[EdgeKey]
    l12_edges: frozenset[EdgeKey]
    ell1: Fraction
    ell2: Fraction
    f_balance: Fraction


class Transmission(NamedTuple):
    vertex: VertexId
    dest_side: int
    size: Fraction


def _division(
    g: ExchangeGraph, pi: Policy, refusal: str
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """An admissible policy's division of labour on the index arrays: per
    side, a mask of the transmitted vertices; per robot, a mask of the edges
    it verifies. ``InadmissiblePolicy(refusal)`` when an edge has neither
    endpoint transmitted."""
    sent1, sent2 = _sent_masks(g, pi)
    # robot 1 verifies an edge when it received the side-2 scan, and robot 2
    # when it received the side-1 scan
    on_robot = (sent2[g.ev], sent1[g.eu])
    if not (on_robot[0] | on_robot[1]).all():
        raise InadmissiblePolicy(refusal)
    return (sent1, sent2), on_robot


def _edge_ends(g: ExchangeGraph, edges: np.ndarray) -> tuple[Iterator[int], Iterator[int]]:
    """The side-1 ids and the side-2 ids of some edges, given as a mask or
    as positions, in edge order."""
    ids1, ids2 = g.ids
    return map(ids1.__getitem__, g.eu[edges].tolist()), map(ids2.__getitem__, g.ev[edges].tolist())


def _edge_key_set(g: ExchangeGraph, edges: np.ndarray) -> frozenset[EdgeKey]:
    """The ``(u, v)`` keys of some edges, given as a mask or as positions;
    built from the graph's ids for those edges only."""
    us, vs = _edge_ends(g, edges)
    return frozenset(zip(_vertex_ids(1, us), _vertex_ids(2, vs)))


def _schedule(g: ExchangeGraph, sent: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per side, the transmitted vertices in ascending id order, from
    per-side masks of the transmitted vertices: as indices into the side's
    sorted ids (:attr:`ExchangeGraph._id_lookups`)."""
    return tuple(np.flatnonzero(mask[order]) for (_, order), mask in zip(g._id_lookups, sent))


def _scan_legs(g: ExchangeGraph, scans: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, list[int], list[int]]]:
    """Per side, ``(side, ids, sizes)`` of the scheduled scans: their ids
    in ascending order, and their effective scan sizes as numerators over
    ``g.den``."""
    return [
        (side, column[at].tolist(), eff[order[at]].tolist())
        for side, (column, order), eff, at in zip((1, 2), g._id_lookups, g.eff_num, scans)
    ]


def _in_id_order(g: ExchangeGraph, edges: np.ndarray) -> np.ndarray:
    """Edge positions sorted by (side-1 id, side-2 id): by the rank of each
    end in its side's sorted ids, so ids past int64 sort too."""
    ranks = []
    for (_, order), ends in zip(g._id_lookups, (g.eu, g.ev)):
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        ranks.append(rank[ends[edges]])
    u, v = ranks
    return edges[np.lexsort((v, u))]  # lexsort sorts by its last key first


def workloads(g: ExchangeGraph, pi: Policy, alpha1=1, alpha2=1) -> WorkloadReport:
    """Compute the induced division of labor for an admissible policy."""
    sent, (l1, l2) = _division(g, pi, "workload partition is defined for admissible policies")
    alpha1 = as_fraction(alpha1)
    alpha2 = as_fraction(alpha2)
    _, ell1, ell2 = _session_costs(g, sent, (l1, l2))
    return WorkloadReport(
        l1_edges=_edge_key_set(g, l1),
        l2_edges=_edge_key_set(g, l2),
        l12_edges=_edge_key_set(g, l1 & l2),
        ell1=ell1,
        ell2=ell2,
        f_balance=alpha1 * ell1 + alpha2 * ell2,
    )


def execute_order(g: ExchangeGraph, pi: Policy) -> list[Transmission]:
    """Deterministic transmission schedule for an admissible policy: the
    labeled scans in ascending (side, index) order, each going to the
    other robot, with its effective byte count."""
    sent, _ = _division(g, pi, "refusing to execute an incomplete-search policy")
    legs = _scan_legs(g, _schedule(g, sent))
    size = g._fractions(chain.from_iterable(nums for _, _, nums in legs))
    return [
        Transmission(VertexId(side, index), 3 - side, size(num))
        for side, ids, nums in legs
        for index, num in zip(ids, nums)
    ]


# -- the broker session --------------------------------------------------------

ROBOT = {1: "robot1", 2: "robot2"}
BROKER = "broker"

METADATA_PHASE = "metadata"
SCAN_PHASE = "scan"
CLOSURE_PHASE = "closure"


class Message(NamedTuple):
    phase: str
    sender: str
    recipient: str
    size: Fraction
    summary: str


def _line(phase: str, sender: str, recipient: str, size: str, summary: str) -> str:
    """One line of a trace file: ``phase from to bytes payload_summary``."""
    return f"{phase} {sender} {recipient} {size} {summary}"


def _is_vertex_id(end) -> bool:
    """Whether ``end`` is a ``(side, index)`` pair of integers."""
    return (
        isinstance(end, tuple) and len(end) == 2 and all(isinstance(x, Integral) and not isinstance(x, bool) for x in end)
    )


def _closure_ids(pair: tuple) -> tuple[VertexId, VertexId]:
    """A ground-truth closure as a pair of ``VertexId``s of ints, so that it
    is named one way whatever integers and tuples it was given in."""
    (su, u), (sv, v) = pair
    return VertexId(int(su), int(u)), VertexId(int(sv), int(v))


@dataclass(frozen=True)
class RendezvousConfig:
    """Knobs of one exchange session.

    ``metadata_bytes_per_vertex`` prices the per-pose descriptors sent to
    the broker (3 bytes fits one vocabulary word). ``broker_host`` set to
    1 or 2 co-locates the broker with that robot, zeroing its metadata
    legs; None models a third-party broker. Both byte sizes are finite,
    non-negative real numbers, kept as exact Fractions of the values given
    (a float as its exact binary value), so that every phase total is the
    sum of its messages. Ground-truth closures must be pairs of
    ``(side, index)`` ids of integers, kept as a frozenset of
    ``VertexId`` pairs of ints, and candidate edges; verification is
    simulated by membership.
    """

    objective: Objective = field(default_factory=Objective.p2)
    metadata_bytes_per_vertex: Real = 3
    ground_truth_closures: frozenset[EdgeKey] = frozenset()
    channel_alive_after_exchange: bool = True
    closure_message_bytes: Real = 64
    broker_host: int | None = None

    def __post_init__(self):
        for name in ("metadata_bytes_per_vertex", "closure_message_bytes"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, Real) or size != size or abs(size) == math.inf:
                raise ValidationError(f"{name} must be a finite number, got {_shown(size)}")
            object.__setattr__(self, name, as_fraction(size))
        if self.metadata_bytes_per_vertex < 0 or self.closure_message_bytes < 0:
            raise ValidationError("message byte sizes must be non-negative")
        if self.broker_host not in (None, 1, 2):
            raise ValidationError(f"broker_host must be 1, 2, or None, got {_shown(self.broker_host, str)}")
        # read once, so that an iterator is not used up by the check
        try:
            closures = tuple(self.ground_truth_closures)
        except TypeError:
            raise ValidationError(
                f"ground_truth_closures {_shown(self.ground_truth_closures)} is not a collection of closures"
            ) from None
        for pair in closures:
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_vertex_id, pair))):
                raise ValidationError(
                    f"ground-truth closure {_shown(pair)} is not a pair of (side, index) ids"
                )
        object.__setattr__(self, "ground_truth_closures", frozenset(map(_closure_ids, closures)))


# the public values of a trace, in the order its repr shows them
_SHOWN = (
    "messages", "policy", "discovered_1", "discovered_2", "undelivered_1", "undelivered_2",
    "metadata_bytes", "scan_bytes", "closure_bytes", "ell1", "ell2",
)


@dataclass(frozen=True, eq=False, repr=False)
class RendezvousTrace:
    """Complete record of one simulated exchange.

    The trace keeps the byte totals and workloads as values, and each
    decision of the session as an index array over its graph: per side,
    the transmitted vertices in ascending id order (as indices into the
    side's sorted ids); per robot, a mask of the edges it screened; the
    edge position of each ground-truth closure, and per robot a mask of
    those it screened.

    ``messages`` (every message of the session, in order),
    ``discovered_1``/``discovered_2`` (the true closures each robot
    found), ``undelivered_1``/``undelivered_2`` (those it alone found and,
    with the channel dead, never sent over), and ``verified_1``,
    ``verified_2`` and ``redundant`` (the candidate edges robot 1, robot 2
    and both screened) are built from those arrays on first access and
    cached, like the graph's ``edges``. Two traces are equal when every
    one of their public values is.
    """

    policy: Policy
    metadata_bytes: Fraction
    scan_bytes: Fraction
    closure_bytes: Fraction
    ell1: Fraction
    ell2: Fraction
    _graph: ExchangeGraph
    _config: RendezvousConfig
    _on_robot: tuple[np.ndarray, np.ndarray]
    # the metadata legs as (sender, recipient, size, summary)
    _metadata: tuple[tuple[str, str, Fraction, str], ...]
    _scans: tuple[np.ndarray, np.ndarray]
    # the closures in the config's order, which the edge-key sets are built
    # in, so that they print as they always have
    _truth: np.ndarray
    _found: tuple[np.ndarray, np.ndarray]

    @cached_property
    def messages(self) -> tuple[Message, ...]:
        g = self._graph
        scans = _scan_legs(g, self._scans)
        size = g._fractions(chain.from_iterable(nums for _, _, nums in scans))
        closure_size = self._config.closure_message_bytes
        return (
            *(Message(METADATA_PHASE, *leg) for leg in self._metadata),
            *(
                Message(SCAN_PHASE, ROBOT[side], ROBOT[3 - side], size(num), f"scan[{side}:{index}]")
                for side, ids, nums in scans
                for index, num in zip(ids, nums)
            ),
            *(
                Message(CLOSURE_PHASE, sender, recipient, closure_size, summary)
                for sender, recipient, summary in self._closure_legs()
            ),
        )

    def _only(self, s: int) -> np.ndarray:
        """The edge positions of the true closures robot ``s + 1`` alone
        screened, in the config's order."""
        return self._truth[self._found[s] & ~self._found[1 - s]]

    def _closure_legs(self) -> Iterator[tuple[str, str, str]]:
        """``(sender, recipient, summary)`` of each closure message: with
        the channel alive, each robot sends the closures only it screened,
        in ascending (side-1 id, side-2 id) order."""
        if not self._config.channel_alive_after_exchange:
            return
        for s, side in enumerate((1, 2)):
            us, vs = _edge_ends(self._graph, _in_id_order(self._graph, self._only(s)))
            sender, recipient = ROBOT[side], ROBOT[3 - side]
            for u, v in zip(us, vs):
                yield sender, recipient, f"closure[1:{u}-2:{v}]"

    def _undelivered(self, s: int) -> frozenset[EdgeKey]:
        if self._config.channel_alive_after_exchange:
            return frozenset()
        return _edge_key_set(self._graph, self._only(s))

    @cached_property
    def discovered_1(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._truth[self._found[0]])

    @cached_property
    def discovered_2(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._truth[self._found[1]])

    @cached_property
    def undelivered_1(self) -> frozenset[EdgeKey]:
        return self._undelivered(0)

    @cached_property
    def undelivered_2(self) -> frozenset[EdgeKey]:
        return self._undelivered(1)

    @cached_property
    def verified_1(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._on_robot[0])

    @cached_property
    def verified_2(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._on_robot[1])

    @cached_property
    def redundant(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._on_robot[0] & self._on_robot[1])

    @property
    def total_bytes(self) -> Fraction:
        return self.metadata_bytes + self.scan_bytes + self.closure_bytes

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in (*_SHOWN, "verified_1", "verified_2", "redundant"))

    def __repr__(self):
        return f"RendezvousTrace({', '.join(f'{name}={getattr(self, name)!r}' for name in _SHOWN)})"

    def __eq__(self, other):
        if not isinstance(other, RendezvousTrace):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _policy_leg_bytes(num_vertices: int) -> int:
    """One bit per own-side vertex, rounded up to whole bytes."""
    return (num_vertices + 7) // 8


def _closure_positions(g: ExchangeGraph, cfg: RendezvousConfig) -> np.ndarray:
    """The edge position of each ground-truth closure of ``cfg``, or
    ``GroundTruthOutsideCandidates`` when one is not a candidate edge."""
    truth = tuple(cfg.ground_truth_closures)
    at = g.edge_positions(truth)
    if (at < 0).any():
        bad = [key for key, k in zip(truth, at.tolist()) if k < 0]
        shown = _shown_ids(sorted(bad), lambda key: f"{key[0]}-{key[1]}")
        raise GroundTruthOutsideCandidates(f"{len(bad)} ground-truth closures outside the candidate set: {shown}")
    return at


def _metadata_legs(g: ExchangeGraph, cfg: RendezvousConfig) -> tuple[tuple[str, str, Fraction, str], ...]:
    """Rounds 1 and 3: each robot's per-pose metadata to the broker, then
    the broker's policy bits back to each robot, as ``(sender, recipient,
    size, summary)``. A leg to or from the robot that hosts the broker
    costs nothing."""
    sizes = [(side, len(ids)) for side, ids in zip((1, 2), g.ids)]
    legs = [(side, ROBOT[side], BROKER, n * cfg.metadata_bytes_per_vertex, f"meta[{n}]") for side, n in sizes]
    legs += [(side, BROKER, ROBOT[side], _policy_leg_bytes(n), f"policy[{n}]") for side, n in sizes]
    return tuple(
        (sender, recipient, Fraction(0) if cfg.broker_host == side else Fraction(size), summary)
        for side, sender, recipient, size, summary in legs
    )


def _session_costs(g: ExchangeGraph, sent, on_robot) -> tuple[Fraction, Fraction, Fraction]:
    """The scan bytes of the transmitted vertices and each robot's
    verification cost ``ell1``, ``ell2``."""
    return (
        Fraction(sum(map(_masked_sum, g.eff_num, sent)), g.den),
        *(Fraction(_masked_sum(g.costs, m), g.den) for m in on_robot),
    )


def run_rendezvous(
    g: ExchangeGraph, cfg: RendezvousConfig, policy: Policy | None = None
) -> RendezvousTrace:
    """Simulate a full exchange session.

    With ``policy`` unset the broker solves ``cfg.objective``; otherwise
    the given admissible policy is executed as-is (used for comparing
    fixed strategies against the optimum). The session runs on the graph's
    index arrays: per-vertex and per-edge masks, sizes and costs as integer
    numerators over ``g.den``.
    """
    _checked_graph(g)
    at = _closure_positions(g, cfg)
    # rounds 1 and 3: metadata to the broker, the policy back
    metadata = _metadata_legs(g, cfg)
    # round 2: the broker forms the graph and solves (or adopts the override)
    if policy is None:
        policy = solve(g, cfg.objective).policy
    sent, on_robot = _division(g, policy, "rendezvous requires a complete-search policy")
    # round 4: execute the policy, scans cross to the other robot
    scans = _schedule(g, sent)
    # round 5: verification against the simulated ground truth
    found = (on_robot[0][at], on_robot[1][at])  # per robot, the true closures it screened
    # round 6: swap discoveries the other robot does not already have
    sent_closures = int(np.count_nonzero(found[0] ^ found[1])) if cfg.channel_alive_after_exchange else 0
    scan_bytes, ell1, ell2 = _session_costs(g, sent, on_robot)
    return RendezvousTrace(
        policy=policy,
        metadata_bytes=sum((size for _, _, size, _ in metadata), Fraction(0)),
        scan_bytes=scan_bytes,
        closure_bytes=sent_closures * cfg.closure_message_bytes,
        ell1=ell1,
        ell2=ell2,
        _graph=g,
        _config=cfg,
        _on_robot=on_robot,
        _metadata=metadata,
        _scans=scans,
        _truth=at,
        _found=found,
    )


class StrategyRow(NamedTuple):
    strategy: str
    scan_bytes: Fraction
    metadata_bytes: Fraction
    ell1: Fraction
    ell2: Fraction


STRATEGIES = ("optimal", "monolog1", "monolog2", "full_bidirectional")


def compare_strategies(g: ExchangeGraph, cfg: RendezvousConfig) -> list[StrategyRow]:
    """Price the rendezvous under the optimal policy, both monologs, and
    the naive everything-both-ways baseline; report bytes and workloads.
    Each row holds the values ``run_rendezvous`` reports for that policy's
    session."""
    _checked_graph(g)
    if g.num_vertices == 0:
        _closure_positions(g, cfg)  # the sessions' first error
        zero = Fraction(0)
        return [StrategyRow(name, zero, zero, zero, zero) for name in STRATEGIES]
    rows = []
    # the optimal session solves cfg.objective itself, after checking the closures
    for name, policy in zip(STRATEGIES, (None, monolog(g, 1), monolog(g, 2), full_bidirectional(g))):
        trace = run_rendezvous(g, cfg, policy)
        rows.append(StrategyRow(name, trace.scan_bytes, trace.metadata_bytes, trace.ell1, trace.ell2))
    return rows


def format_trace(trace: RendezvousTrace) -> str:
    """Line-oriented export: ``phase from to bytes payload_summary``. The
    scan and closure lines are written from the trace's index arrays, with
    one text per distinct scan size and one for the closure size."""
    g = trace._graph
    lines = [
        _line(METADATA_PHASE, sender, recipient, format_rational(size), summary)
        for sender, recipient, size, summary in trace._metadata
    ]
    scans = _scan_legs(g, trace._scans)
    texts = _rational_texts(chain.from_iterable(nums for _, _, nums in scans), g.den)
    for side, ids, nums in scans:
        head = f"{SCAN_PHASE} {ROBOT[side]} {ROBOT[3 - side]} "
        lines += [f"{head}{texts[num]} scan[{side}:{index}]" for index, num in zip(ids, nums)]
    size = format_rational(trace._config.closure_message_bytes)
    lines += [
        _line(CLOSURE_PHASE, sender, recipient, size, summary) for sender, recipient, summary in trace._closure_legs()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def strategy_table_csv(rows: list[StrategyRow]) -> str:
    out = ["strategy,scan_bytes,metadata_bytes,ell1,ell2"]
    for row in rows:
        out.append(
            ",".join(
                [row.strategy]
                + [format_rational(x) for x in (row.scan_bytes, row.metadata_bytes, row.ell1, row.ell2)]
            )
        )
    return "\n".join(out) + "\n"
