"""Exchange policies: which scans get transmitted, and what that costs.

A policy is a total 0/1 labeling of the graph's vertices; label 1 means
"send this pose's scan to the other robot". A policy is admissible when
every candidate edge has at least one transmitted endpoint, which is
exactly what guarantees a complete loop-closure search. Admissible
policies are indicator functions of vertex covers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    EmptySide,
    GraphFormatError,
    InadmissiblePolicy,
    LabelDomainMismatch,
    ValidationError,
)
from .graph import EdgeKey, ExchangeGraph, VertexId, _load_int, effective_weight
from .objectives import Objective, as_fraction


class Policy:
    """Immutable total labeling of a vertex set."""

    __slots__ = ("domain", "ones")

    def __init__(self, domain: Iterable[VertexId], ones: Iterable[VertexId]):
        self.domain = frozenset(domain)
        self.ones = frozenset(ones)
        if not self.ones <= self.domain:
            raise ValidationError("labeled vertices outside the policy domain")

    @classmethod
    def from_labels(cls, labels: Mapping[VertexId, int]) -> "Policy":
        for vid, bit in labels.items():
            if bit not in (0, 1):
                raise ValidationError(f"label of {vid} must be 0 or 1, got {bit!r}")
        return cls(labels.keys(), (vid for vid, bit in labels.items() if bit == 1))

    @classmethod
    def from_cover(cls, g: ExchangeGraph, cover: Iterable[VertexId]) -> "Policy":
        return cls(g.vertex_ids, cover)

    def label(self, vid: VertexId) -> int:
        if vid not in self.domain:
            raise LabelDomainMismatch(f"vertex {vid} not labeled by this policy")
        return 1 if vid in self.ones else 0

    def to_labels(self) -> dict[VertexId, int]:
        return {vid: (1 if vid in self.ones else 0) for vid in sorted(self.domain)}

    def __eq__(self, other):
        return (
            isinstance(other, Policy)
            and self.domain == other.domain
            and self.ones == other.ones
        )

    def __hash__(self):
        return hash((self.domain, self.ones))

    def __repr__(self):
        ones = ", ".join(str(v) for v in sorted(self.ones))
        return f"Policy(ones={{{ones}}})"


def _check_domain(g: ExchangeGraph, pi: Policy) -> None:
    if pi.domain != frozenset(g.vertex_ids):
        missing = frozenset(g.vertex_ids) - pi.domain
        extra = pi.domain - frozenset(g.vertex_ids)
        raise LabelDomainMismatch(
            f"policy domain mismatch (missing={sorted(missing)}, extra={sorted(extra)})"
        )


def is_admissible(g: ExchangeGraph, pi: Policy) -> bool:
    """True iff every candidate edge has at least one transmitted endpoint."""
    _check_domain(g, pi)
    return all(e.u in pi.ones or e.v in pi.ones for e in g.edges)


def monolog(g: ExchangeGraph, source_side: int) -> Policy:
    """The one-directional policy transmitting every scan of one robot."""
    if source_side not in (1, 2):
        raise ValidationError(f"robot side must be 1 or 2, got {source_side}")
    source = g.side(source_side)
    if not source:
        raise EmptySide(f"side {source_side} has no vertices")
    return Policy(g.vertex_ids, (sv.vid for sv in source))


def full_bidirectional(g: ExchangeGraph) -> Policy:
    """Every scan sent both ways: the naive all-ones baseline."""
    return Policy(g.vertex_ids, g.vertex_ids)


def comm_cost(g: ExchangeGraph, pi: Policy) -> Fraction:
    """Total bytes transmitted: the sum of effective scan sizes over
    labeled vertices. Defined for any labeling, admissible or not."""
    return objective_cost(g, pi, Objective.p2())


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


def workloads(g: ExchangeGraph, pi: Policy, alpha1=1, alpha2=1) -> WorkloadReport:
    """Compute the induced division of labor for an admissible policy."""
    _check_domain(g, pi)
    if not is_admissible(g, pi):
        raise InadmissiblePolicy("workload partition is defined for admissible policies")
    alpha1 = as_fraction(alpha1)
    alpha2 = as_fraction(alpha2)
    l1, l2 = set(), set()
    ell1 = ell2 = Fraction(0)
    for e in g.edges:
        if e.v in pi.ones:  # robot 1 received the side-2 scan
            l1.add(e.key)
        if e.u in pi.ones:  # robot 2 received the side-1 scan
            l2.add(e.key)
    for vid in pi.ones:
        cost = g.incidence().incident_cost(vid)
        if vid.side == 2:
            ell1 += cost
        else:
            ell2 += cost
    return WorkloadReport(
        l1_edges=frozenset(l1),
        l2_edges=frozenset(l2),
        l12_edges=frozenset(l1 & l2),
        ell1=ell1,
        ell2=ell2,
        f_balance=alpha1 * ell1 + alpha2 * ell2,
    )


def balance_cost(g: ExchangeGraph, pi: Policy, alpha1=1, alpha2=1) -> Fraction:
    """Workload objective as a pure per-vertex sum; unlike
    :func:`workloads` this is defined for inadmissible labelings too."""
    return objective_cost(g, pi, Objective.p1(alpha1, alpha2))


def objective_cost(g: ExchangeGraph, pi: Policy, obj: Objective) -> Fraction:
    """Cost of a labeling under an objective; equals the sum of per-vertex
    effective weights over the labeled vertices."""
    _check_domain(g, pi)
    return sum((effective_weight(g, vid, obj) for vid in pi.ones), Fraction(0))


class Transmission(NamedTuple):
    vertex: VertexId
    dest_side: int
    size: Fraction


def execute_order(g: ExchangeGraph, pi: Policy) -> list[Transmission]:
    """Deterministic transmission schedule for an admissible policy: the
    labeled scans in ascending (side, index) order, each going to the
    other robot, with its effective byte count."""
    _check_domain(g, pi)
    if not is_admissible(g, pi):
        raise InadmissiblePolicy("refusing to execute an incomplete-search policy")
    return [
        Transmission(vid, 2 if vid.side == 1 else 1, g.scan_weight(vid))
        for vid in sorted(pi.ones)
    ]


# -- policy file format ----------------------------------------------------
#
# JSON object with a "labels" array of {"side", "index", "bit"} records,
# one per vertex, sorted by (side, index).


def dumps_policy(pi: Policy) -> str:
    rows = [
        f'    {{"side": {vid.side}, "index": {vid.index}, "bit": {1 if vid in pi.ones else 0}}}'
        for vid in sorted(pi.domain)
    ]
    return '{\n  "labels": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def loads_policy(text: str) -> Policy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    try:
        labels = {
            VertexId(_load_int(row["side"]), _load_int(row["index"])): _load_int(row["bit"])
            for row in doc["labels"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed policy file: {exc!r}") from exc
    return Policy.from_labels(labels)


def save_policy(pi: Policy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_policy(pi))


def load_policy(path) -> Policy:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_policy(fh.read())
