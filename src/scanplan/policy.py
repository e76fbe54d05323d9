"""Exchange policies: which scans get transmitted, and what that costs.

A policy is a total 0/1 labeling of the graph's vertices; label 1 means
"send this pose's scan to the other robot". A policy is admissible when
every candidate edge has at least one transmitted endpoint, which is
exactly what guarantees a complete loop-closure search. Admissible
policies are indicator functions of vertex covers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptySide,
    GraphFormatError,
    LabelDomainMismatch,
    ValidationError,
)
from .graph import (
    ExchangeGraph,
    VertexId,
    _load_file,
    _load_int,
    _load_json,
    _objects,
    weight_numerators,
)
from .objectives import Objective, _shown, _shown_ids


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
                raise ValidationError(f"label of {_shown(vid, str)} must be 0 or 1, got {_shown(bit)}")
        return cls(labels.keys(), (vid for vid, bit in labels.items() if bit == 1))

    def label(self, vid: VertexId) -> int:
        if vid not in self.domain:
            raise LabelDomainMismatch(f"vertex {_shown(vid, str)} not labeled by this policy")
        return 1 if vid in self.ones else 0

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


def _masked_sum(column: Sequence[int], mask: np.ndarray) -> int:
    """The sum of an integer column over a boolean mask of the same length:
    the one sum behind every cost of a labelling."""
    return sum(compress(column, mask.tolist()))


def _sent_masks(g: ExchangeGraph, pi: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Per side, a mask of the vertices the policy transmits.
    ``LabelDomainMismatch`` unless the policy labels exactly g's vertices."""
    if pi.domain != g.vertex_set:
        missing = g.vertex_set - pi.domain
        extra = pi.domain - g.vertex_set
        raise LabelDomainMismatch(
            f"policy domain mismatch (missing {len(missing)}: [{_shown_ids(sorted(missing))}], "
            f"extra {len(extra)}: [{_shown_ids(sorted(extra))}])"
        )
    return g.label_masks(pi.ones)


def is_admissible(g: ExchangeGraph, pi: Policy) -> bool:
    """True iff every candidate edge has at least one transmitted endpoint."""
    sent1, sent2 = _sent_masks(g, pi)
    return bool((sent1[g.eu] | sent2[g.ev]).all())


def monolog(g: ExchangeGraph, source_side: int) -> Policy:
    """The one-directional policy transmitting every scan of one robot."""
    source = g.side_vids(source_side)
    if not source:
        raise EmptySide(f"side {source_side} has no vertices")
    return Policy(g.vertex_ids, source)


def full_bidirectional(g: ExchangeGraph) -> Policy:
    """Every scan sent both ways: the naive all-ones baseline."""
    return Policy(g.vertex_ids, g.vertex_ids)


def comm_cost(g: ExchangeGraph, pi: Policy) -> Fraction:
    """Total bytes transmitted: the sum of effective scan sizes over
    labeled vertices. Defined for any labeling, admissible or not."""
    return objective_cost(g, pi, Objective.p2())


def objective_cost(g: ExchangeGraph, pi: Policy, obj: Objective) -> Fraction:
    """Cost of a labeling under an objective; equals the sum of per-vertex
    effective weights over the labeled vertices."""
    sent = _sent_masks(g, pi)
    weight, den = weight_numerators(g, obj)
    return Fraction(sum(map(_masked_sum, weight, sent)), den)


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
    doc = _load_json(text)
    labels = {}
    try:
        for k, row in enumerate(_objects(doc, "labels")):
            vid, bit = VertexId(_load_int(row["side"]), _load_int(row["index"])), _load_int(row["bit"])
            if vid in labels:
                raise ValidationError(f"duplicate vertex id {_shown(vid, str)} in labels[{k}]")
            labels[vid] = bit
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed policy file: {exc!r}") from exc
    return Policy.from_labels(labels)


def save_policy(pi: Policy, path) -> None:
    Path(path).write_text(dumps_policy(pi), encoding="utf-8")


def load_policy(path) -> Policy:
    return _load_file(path, loads_policy)
