"""Shared exception types."""


class CapacityError(Exception):
    """A requested computation exceeds a configured size limit."""


class SolverConvergenceError(Exception):
    """An eigensolver failed to converge or found no simple zero mode.

    The message carries whatever diagnostics the solver produced, so callers
    can report them instead of silently retrying.
    """
