"""Shared exception types, and the text of the counts they report."""

import math


class CapacityError(Exception):
    """A requested computation exceeds a configured size limit."""


class SolverConvergenceError(Exception):
    """An eigensolver failed to converge or found no simple zero mode.

    The message carries whatever diagnostics the solver produced, so callers
    can report them instead of silently retrying.
    """


def format_count(count: int) -> str:
    """``count`` in decimal, or as its nearest power of ten past 30 digits.

    Python refuses to convert an int of more than 4,300 digits to str, so a
    refusal of an astronomically large space states its size this way.
    """
    if count < 10**30:
        return str(count)
    return f"about 10^{round(math.log10(count))}"
