"""Exception types shared across the package.

The command-line layer maps these onto exit codes: input problems exit
with 2, exhausted budgets with 3, failed internal self-checks with 4.  A
failed identity check is not an exception; it is a report with a false
verdict (exit 1).
"""

from __future__ import annotations

from typing import Callable


class AltdetError(Exception):
    """Base class for errors raised by this package."""


class InputError(AltdetError, ValueError):
    """Malformed external data: bad rational literal, bad JSON instance."""


class DimensionError(AltdetError, ValueError):
    """Shapes, sizes or ambient spaces do not line up."""


def _figure(value: int) -> str:
    """The value in full up to 18 digits, else by its bit length.

    A count of any size prints in a short line and needs no int-to-string
    conversion past the interpreter's digit limit.
    """
    return str(value) if value < 10**18 else f"a {value.bit_length()}-bit number"


def _shown(value) -> str:
    """The value for a one-line message: short strings and scalars in full.

    A string past 60 characters shows its first 24 and its length; any
    value but a string, None, a bool, a float or an int of up to 18 digits
    is named by its type, as a long list printed whole fills megabytes of
    one line.
    """
    if isinstance(value, str):
        return repr(value) if len(value) <= 60 else f"{value[:24]!r}... ({len(value)} characters)"
    if value is None or type(value) in (bool, float) or type(value) is int and abs(value) < 10**18:
        return repr(value)
    return type(value).__name__


class BudgetError(AltdetError, RuntimeError):
    """An enumeration or search exceeded its configured budget."""

    def __init__(self, message: str, count: int | None = None, budget: int | None = None):
        if count is not None and budget is not None:
            message = f"{message} ({_figure(count)} > budget {_figure(budget)})"
        super().__init__(message)
        self.count = count
        self.budget = budget


def charge(count: int | Callable[[], int], budget: int, what: str, *, bits: int = 0) -> int:
    """The one size gate: ``count``, or `BudgetError` when it exceeds ``budget``.

    A count that may be too large to build comes as a function, with
    ``bits``, a lower bound on its bit length.  A bound past both the
    budget's bit length and 64 refuses the count unbuilt, as "at least a
    ``bits``-bit number"; otherwise the count is built and compared.
    """
    if bits > max(budget.bit_length(), 64):
        raise BudgetError(f"{what} (at least a {bits}-bit number > budget {_figure(budget)})")
    if callable(count):
        count = count()
    if count > budget:
        raise BudgetError(what, count=count, budget=budget)
    return count


class SelfCheckError(AltdetError, RuntimeError):
    """An internal consistency check failed: a bug, not a bad input."""
