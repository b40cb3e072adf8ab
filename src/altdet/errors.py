"""Exception types shared across the package.

The command-line layer maps these onto exit codes: input problems exit
with 2, exhausted budgets with 3, failed internal self-checks with 4.  A
failed identity check is not an exception; it is a report with a false
verdict (exit 1).
"""

from __future__ import annotations


class AltdetError(Exception):
    """Base class for errors raised by this package."""


class InputError(AltdetError, ValueError):
    """Malformed external data: bad rational literal, bad JSON instance."""


class DimensionError(AltdetError, ValueError):
    """Shapes, sizes or ambient spaces do not line up."""


class BudgetError(AltdetError, RuntimeError):
    """An enumeration or search exceeded its configured budget."""

    def __init__(self, message: str, count: int | None = None, budget: int | None = None):
        if count is not None and budget is not None:
            message = f"{message} ({count} > budget {budget})"
        super().__init__(message)
        self.count = count
        self.budget = budget


class SelfCheckError(AltdetError, RuntimeError):
    """An internal consistency check failed: a bug, not a bad input."""
