"""Exception types shared across the package."""

import operator


class CausalCorrError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(CausalCorrError):
    """A directed cycle was found where a DAG is required."""


class UnknownNode(CausalCorrError):
    """A node id does not belong to the graph."""


class NodeMismatch(CausalCorrError):
    """Two graphs were expected to share the same node set."""


class SizeLimitExceeded(CausalCorrError):
    """A state space or enumeration exceeded the configured guard."""


class UnknownVariable(CausalCorrError):
    """A variable id does not belong to the distribution."""


class OverlappingSets(CausalCorrError):
    """Target and given variable sets must be disjoint."""


class VariableCollision(CausalCorrError):
    """Two distributions share a variable id where disjointness is required."""


class VariableMismatch(CausalCorrError):
    """Two distributions must be over identical variable lists."""


class BadEpsilon(CausalCorrError):
    """Error budget outside [0, 1]."""


class ShapeMismatch(CausalCorrError):
    """Input data does not have the expected variables, sizes or dimensions."""


class InvalidModel(CausalCorrError):
    """A model failed validation where a valid one is required."""


def require_valid(violations: list[str]) -> None:
    """Raise InvalidModel naming each violation a validator reported, if there is any."""
    if violations:
        raise InvalidModel("; ".join(violations))


def as_size(size, kind: str, name) -> int:
    """``size`` as an int by ``operator.index``, so a numpy integer converts
    while a bool, a float or a string, which ``int()`` would take as 0 or 1,
    truncate or parse, raises ShapeMismatch naming the ``kind`` and ``name`` it sizes."""
    try:
        return operator.index(None if type(size) is bool else size)
    except TypeError:
        raise ShapeMismatch(f"{kind} {name!r}: size {size!r} is not an integer") from None


class NotAncestral(CausalCorrError):
    """The node set is not equal to its own causal past."""


class WouldCreateCycle(CausalCorrError):
    """Adding the requested edge would create a directed cycle."""


class MissingRelayPath(CausalCorrError):
    """The relay node does not provide the required two-step path."""


class NotNoSignalling(CausalCorrError):
    """Local-polytope membership is only defined for no-signalling inputs."""


class IncompletePOVM(CausalCorrError):
    """POVM effects are not Hermitian, not positive semidefinite, or do not sum to the identity."""


class NegativeProbability(CausalCorrError):
    """A contraction produced a probability below the negativity tolerance."""


class SchemaError(CausalCorrError):
    """JSON input does not match its documented schema: a missing or unknown field,
    a wrong JSON type or a wrong list length."""


class SolverError(CausalCorrError, RuntimeError):
    """An LP solve stopped before an optimal tableau (pivot limit or unbounded status)."""
