"""Comparison-cost budgets for progressive ER.

A :class:`Budget` tracks how much of the allotted computing budget has been
consumed.  The unit is abstract "cost": by default every comparison costs 1,
but matchers may charge more (e.g. an expensive oracle), and the cost--benefit
scheduler also charges the cost of *finding* pairs, not only of resolving
them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, repeat
from math import isfinite
from typing import Optional


class Budget:
    """A consumable budget of comparison cost.

    Parameters
    ----------
    total:
        Total cost available; ``None`` means unlimited (useful for measuring
        the full curve).  Anything else must be a finite non-negative number.
    """

    def __init__(self, total: Optional[float] = None) -> None:
        if total is not None and not (isfinite(total) and total >= 0):
            raise ValueError(f"budget must be a finite non-negative number, got {total!r}")
        self.total = total
        self._spent = 0.0

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> Optional[float]:
        if self.total is None:
            return None
        return max(0.0, self.total - self._spent)

    @property
    def exhausted(self) -> bool:
        return self.total is not None and self._spent >= self.total

    def can_afford(self, cost: float) -> bool:
        """Whether ``cost`` more units fit in the budget."""
        if self.total is None:
            return True
        return self._spent + cost <= self.total

    def charge(self, cost: float = 1.0) -> bool:
        """Charge ``cost`` units; returns False (and charges nothing) if unaffordable."""
        if cost < 0:
            raise ValueError("cost must be non-negative")
        if not self.can_afford(cost):
            return False
        self._spent += cost
        return True

    def charge_many(self, cost: float, count: int) -> int:
        """Charge ``cost`` up to ``count`` times; returns how many fitted.

        Leaves :attr:`spent` exactly where that many :meth:`charge` calls
        would: the running totals are accumulated one addition at a time
        (never ``count * cost``), so a non-integer cost rounds the same way.
        """
        if cost < 0:
            raise ValueError("cost must be non-negative")
        totals = list(accumulate(repeat(cost, count), initial=self._spent))
        if self.total is not None:
            # cost >= 0: the totals never decrease, so the affordable charges
            # are a prefix
            count = max(0, bisect_right(totals, self.total) - 1)
        self._spent = totals[count]
        return count

    def fraction_used(self) -> float:
        """Fraction of the budget consumed (0 when unlimited)."""
        if self.total in (None, 0):
            return 0.0
        return min(1.0, self._spent / self.total)

    def reset(self) -> None:
        self._spent = 0.0

    def __repr__(self) -> str:
        if self.total is None:
            return f"Budget(unlimited, spent={self._spent:.0f})"
        return f"Budget(total={self.total:.0f}, spent={self._spent:.0f})"
