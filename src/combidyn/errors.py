"""Exception types shared across the package."""


class CombidynError(Exception):
    """Base class for all package errors.  One raised inside a receding-horizon
    slot carries the slot's 1-based ``step``, which its message names last."""

    step = None

    def __str__(self):
        return super().__str__() + ("" if self.step is None else f" (step {self.step})")


class DimensionError(CombidynError):
    """Array shapes or grids do not match the system they are used with."""


class IntegrationDivergedError(CombidynError):
    """Forward integration produced a non-finite state or payoff."""

    quantity = "state"

    def __init__(self, knot_index, message=None):
        self.knot_index = knot_index
        super().__init__(message or f"non-finite {self.quantity} at knot {knot_index}")


class AdjointDivergedError(IntegrationDivergedError):
    """Backward costate integration produced a non-finite value."""

    quantity = "costate"


class NotRelaxableError(CombidynError):
    """A relaxed (fractional-decision) evaluation was requested on a system
    whose field and payoff are declared only on binary decisions."""


class ConstraintError(CombidynError):
    """A constraint set violates its own invariants (bad band, negative
    capacity, malformed rows)."""


class InfeasibleError(CombidynError):
    """No binary vector satisfies the constraints."""


class TuViolationError(CombidynError):
    """The relaxed linear program returned a fractional vertex, i.e. the
    caller's total-unimodularity assertion was false."""


class EnumerationRefusedError(CombidynError):
    """An exhaustive operation was requested above its dimension guard."""


class NumericError(CombidynError):
    """A numerical procedure failed to converge or hit an iteration guard."""


class ScenarioError(CombidynError):
    """A scenario file is malformed; carries the field path and line."""

    def __init__(self, path, message, line=None):
        self.field_path = path
        self.line = line
        where = f"{path}" + (f" (line {line})" if line is not None else "")
        super().__init__(f"{where}: {message}")
