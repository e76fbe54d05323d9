"""Exception hierarchy shared by all scanplan modules.

Two broad families matter to callers (and to the CLI exit codes):
``GraphFormatError`` for unreadable/malformed input files, and
``ValidationError`` for structurally readable but semantically invalid data.
``InvariantViolation`` marks a result that failed an internal consistency
check, which is a defect in this package rather than in the input.
"""


class ScanPlanError(Exception):
    """Base class for every error raised by this package."""


class GraphFormatError(ScanPlanError):
    """An input file could not be parsed (CLI exit code 2)."""


class ValidationError(ScanPlanError):
    """Parsed data violates a model invariant (CLI exit code 3)."""


class InvariantViolation(ScanPlanError):
    """A computed result failed an internal consistency check (CLI exit
    code 4). Unlike ``assert``, the check survives ``python -O``."""


class DuplicateEdge(ValidationError):
    """The same unordered vertex pair appears twice in an edge list."""


class NegativeWeight(ValidationError):
    """A scan size, inertia price, or edge cost is negative or non-finite."""


class IndexOutOfRange(ValidationError):
    """An edge references a vertex index outside the declared vertex lists,
    or gives one as a number that is not an integer."""


class UnknownVertex(ValidationError):
    """A vertex id does not belong to the graph being queried."""


class EmptyTrajectory(ValidationError):
    """A trajectory with zero poses was supplied where poses are required."""


class ScoreOutOfRange(ValidationError):
    """An appearance similarity score falls outside [0, 1]."""


class LabelDomainMismatch(ValidationError):
    """A policy does not label exactly the vertices of the graph."""


class InadmissiblePolicy(ValidationError):
    """An operation requiring a complete search got a policy leaving some
    candidate edge with neither endpoint transmitted."""


class EmptySide(ValidationError):
    """A one-directional policy was requested from a side with no vertices."""


class NonUniformWeights(ValidationError):
    """A uniform-weight-only operation got a graph with unequal weights."""


class GroundTruthOutsideCandidates(ValidationError):
    """A simulated ground-truth loop closure is not a candidate edge."""
