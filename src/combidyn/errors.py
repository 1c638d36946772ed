"""Exception types shared across the package, and the one rule that names
the slot an error was raised in (:func:`named_step`)."""

from contextlib import contextmanager


class CombidynError(Exception):
    """Base class for all package errors.  One raised inside a slot's work
    carries the slot's 1-based ``step``, which its message names last.  A
    scenario type's invariant error names the ``field`` it checks, as an
    attribute path from that type (``"b"``, ``"params.c"``)."""

    step = None

    def __init__(self, *args, field=None):
        super().__init__(*args)
        self.field = field

    def __str__(self):
        return super().__str__() + ("" if self.step is None else f" (step {self.step})")


@contextmanager
def named_step(k: int):
    """A block run as slot k: a package error that leaves it naming no step
    leaves it naming step k."""
    try:
        yield
    except CombidynError as exc:
        if exc.step is None:
            exc.step = k
        raise


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
    """The relaxed linear program returned a fractional optimal vertex, so
    the rows are not totally unimodular and the LP gives no 0-1 optimum."""


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
