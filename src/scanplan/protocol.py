"""Broker-mediated rendezvous simulation with byte-accurate accounting.

The exchange session runs six deterministic rounds: both robots send
compact per-pose metadata to the broker, the broker solves for the
cheapest complete-search policy and returns it, the robots execute the
policy by exchanging scans, each verifies its assigned candidate edges
against the simulated ground truth, and finally the robots swap the loop
closures the other one could not have discovered itself. Edges whose both
endpoints were transmitted are verified redundantly by both robots on
purpose; those discoveries never need a closure message.

Actors are simulated in-process ("robot1", "robot2", "broker"); traces
are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GroundTruthOutsideCandidates, ValidationError
from .graph import EdgeKey, ExchangeGraph, _shown_ids, format_rational
from .objectives import Objective
from .policy import (
    Policy,
    _cost_num,
    _division,
    _edge_key_set,
    _schedule,
    execute_order,  # noqa: F401  (still importable from scanplan.protocol)
    full_bidirectional,
    is_admissible,  # noqa: F401
    monolog,
    workloads,  # noqa: F401
)
from .solver import solve

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


@dataclass(frozen=True)
class RendezvousConfig:
    """Knobs of one exchange session.

    ``metadata_bytes_per_vertex`` prices the per-pose descriptors sent to
    the broker (3 bytes fits one vocabulary word). ``broker_host`` set to
    1 or 2 co-locates the broker with that robot, zeroing its metadata
    legs; None models a third-party broker. Ground-truth closures must be
    candidate edges; verification is simulated by membership.
    """

    objective: Objective = field(default_factory=Objective.p2)
    metadata_bytes_per_vertex: int = 3
    ground_truth_closures: frozenset[EdgeKey] = frozenset()
    channel_alive_after_exchange: bool = True
    closure_message_bytes: int = 64
    broker_host: int | None = None

    def __post_init__(self):
        if self.metadata_bytes_per_vertex < 0 or self.closure_message_bytes < 0:
            raise ValidationError("message byte sizes must be non-negative")
        if self.broker_host not in (None, 1, 2):
            raise ValidationError(f"broker_host must be 1, 2, or None, got {self.broker_host}")


# RendezvousTrace's public values, in the order they are compared
_TRACE_VALUES = (
    "messages",
    "policy",
    "verified_1",
    "verified_2",
    "redundant",
    "discovered_1",
    "discovered_2",
    "undelivered_1",
    "undelivered_2",
    "metadata_bytes",
    "scan_bytes",
    "closure_bytes",
    "ell1",
    "ell2",
)


@dataclass(frozen=True, eq=False)
class RendezvousTrace:
    """Complete record of one simulated exchange.

    ``verified_1``, ``verified_2`` and ``redundant`` are the candidate edges
    robot 1, robot 2 and both screened. They are built from per-edge masks
    on first access and cached, like the graph's ``edges``. Two traces are
    equal when every one of their values is.
    """

    messages: tuple[Message, ...]
    policy: Policy
    discovered_1: frozenset[EdgeKey]  # true closures robot 1 found
    discovered_2: frozenset[EdgeKey]
    undelivered_1: frozenset[EdgeKey]  # found by robot 1, never sent over
    undelivered_2: frozenset[EdgeKey]
    metadata_bytes: Fraction
    scan_bytes: Fraction
    closure_bytes: Fraction
    ell1: Fraction
    ell2: Fraction
    # the graph and, per robot, the mask of the edges it screened
    _graph: ExchangeGraph = field(repr=False)
    _on_robot: tuple[np.ndarray, np.ndarray] = field(repr=False)

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
        return tuple(getattr(self, name) for name in _TRACE_VALUES)

    def __eq__(self, other):
        if not isinstance(other, RendezvousTrace):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _policy_leg_bytes(num_vertices: int) -> int:
    """One bit per own-side vertex, rounded up to whole bytes."""
    return (num_vertices + 7) // 8


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
    truth = tuple(cfg.ground_truth_closures)
    at = g.edge_positions(truth)
    if (at < 0).any():
        bad = [key for key, k in zip(truth, at.tolist()) if k < 0]
        shown = _shown_ids([f"{u}-{v}" for u, v in sorted(bad)])
        raise GroundTruthOutsideCandidates(f"{len(bad)} ground-truth closures outside the candidate set: {shown}")
    messages: list[Message] = []

    def meta_leg(sender, recipient, robot_side, size, summary):
        cost = Fraction(0) if cfg.broker_host == robot_side else Fraction(size)
        messages.append(Message(METADATA_PHASE, sender, recipient, cost, summary))

    # round 1: per-pose metadata to the broker
    for side in (1, 2):
        n = len(g.ids[side - 1])
        meta_leg(ROBOT[side], BROKER, side, n * cfg.metadata_bytes_per_vertex, f"meta[{n}]")
    # round 2/3: broker forms the graph and solves (or adopts the override)
    if policy is None:
        policy = solve(g, cfg.objective).policy
    sent, on_robot = _division(g, policy, "rendezvous requires a complete-search policy")
    for side in (1, 2):
        n = len(g.ids[side - 1])
        meta_leg(BROKER, ROBOT[side], side, _policy_leg_bytes(n), f"policy[{n}]")
    # round 4: execute the policy, scans cross to the other robot
    scans = _schedule(g, sent)
    # one Fraction per distinct scan size
    sizes = {num: Fraction(num, g.den) for num in {num for _, _, num in scans}}
    messages += [
        Message(SCAN_PHASE, ROBOT[side], ROBOT[3 - side], sizes[num], f"scan[{side}:{index}]")
        for side, index, num in scans
    ]
    # round 5: verification against the simulated ground truth
    found = [m[at] for m in on_robot]  # per robot, the true closures it screened
    exclusive = {1: at[found[0] & ~found[1]], 2: at[found[1] & ~found[0]]}
    # round 6: swap discoveries the other robot does not already have
    closure_size = Fraction(cfg.closure_message_bytes)
    closures = 0
    undelivered = {1: frozenset(), 2: frozenset()}
    if cfg.channel_alive_after_exchange:
        for side in (1, 2):
            messages += [
                Message(CLOSURE_PHASE, ROBOT[side], ROBOT[3 - side], closure_size, f"closure[{u}-{v}]")
                for u, v in sorted(_edge_key_set(g, exclusive[side]))
            ]
            closures += len(exclusive[side])
    else:
        undelivered = {side: _edge_key_set(g, exclusive[side]) for side in (1, 2)}
    metadata_bytes = sum(
        (m.size for m in messages if m.phase == METADATA_PHASE), Fraction(0)
    )
    return RendezvousTrace(
        messages=tuple(messages),
        policy=policy,
        discovered_1=_edge_key_set(g, at[found[0]]),
        discovered_2=_edge_key_set(g, at[found[1]]),
        undelivered_1=undelivered[1],
        undelivered_2=undelivered[2],
        metadata_bytes=metadata_bytes,
        scan_bytes=Fraction(sum(num for _, _, num in scans), g.den),
        closure_bytes=Fraction(closures * cfg.closure_message_bytes),
        ell1=Fraction(_cost_num(g, on_robot[0]), g.den),
        ell2=Fraction(_cost_num(g, on_robot[1]), g.den),
        _graph=g,
        _on_robot=on_robot,
    )


class StrategyRow(NamedTuple):
    strategy: str
    scan_bytes: Fraction
    metadata_bytes: Fraction
    ell1: Fraction
    ell2: Fraction


STRATEGIES = ("optimal", "monolog1", "monolog2", "full_bidirectional")


def compare_strategies(g: ExchangeGraph, cfg: RendezvousConfig) -> list[StrategyRow]:
    """Run the rendezvous under the optimal policy, both monologs, and the
    naive everything-both-ways baseline; report bytes and workloads."""
    if g.num_vertices == 0:
        zero = Fraction(0)
        return [StrategyRow(name, zero, zero, zero, zero) for name in STRATEGIES]
    policies = {
        "optimal": None,
        "monolog1": monolog(g, 1),
        "monolog2": monolog(g, 2),
        "full_bidirectional": full_bidirectional(g),
    }
    rows = []
    for name in STRATEGIES:
        trace = run_rendezvous(g, cfg, policy=policies[name])
        rows.append(
            StrategyRow(name, trace.scan_bytes, trace.metadata_bytes, trace.ell1, trace.ell2)
        )
    return rows


def format_trace(trace: RendezvousTrace) -> str:
    """Line-oriented export: ``phase from to bytes payload_summary``."""
    lines = [
        f"{m.phase} {m.sender} {m.recipient} {format_rational(m.size)} {m.summary}"
        for m in trace.messages
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
