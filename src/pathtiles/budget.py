"""The state budget every exhaustive search spends: a large input ends in a
reported BudgetExceeded, never a hang."""

import os

DEFAULT_ENUMERATION_CAP = 10_000_000


def enumeration_cap() -> int:
    """Current enumeration budget; TILING_REFLECT_BUDGET overrides the default."""
    value = os.environ.get("TILING_REFLECT_BUDGET")
    return int(value) if value else DEFAULT_ENUMERATION_CAP


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive enumeration exceeds its state budget."""


class Budget:
    """Mutable countdown shared across one enumeration call tree."""

    __slots__ = ("remaining", "limit")

    def __init__(self, limit: int | None = None):
        self.limit = limit if limit is not None else enumeration_cap()
        self.remaining = self.limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded(
                f"enumeration exceeded its budget of {self.limit} states; "
                "raise TILING_REFLECT_BUDGET or shrink the instance"
            )
