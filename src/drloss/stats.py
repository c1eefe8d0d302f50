"""Wilson intervals and the slack policy used by statistical assertions.

Every probabilistic claim is checked as "bound plus explicit slack", never
as a raw point estimate: frequency assertions use the Wilson 95% interval
endpoint facing the bound, and mean assertions use a three-sigma empirical
standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class Assertion:
    """One statistical check: an observed value against a bound with slack."""

    name: str
    observed: float
    bound: float
    slack_rule: str
    passed: bool

    def describe(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name}: observed={self.observed:.6g} bound={self.bound:.6g} ({self.slack_rule})"


def freq_at_most(name: str, violations: int, trials: int, bound: float) -> Assertion:
    """Observed frequency must not statistically exceed ``bound``.

    Passes when the Wilson 95% lower endpoint of the violation frequency is
    at most ``bound``; equivalently, frequency <= bound + slack.
    """
    lo, _ = wilson_interval(violations, trials)
    return Assertion(name, violations / trials, bound, "wilson95 lower <= bound", lo <= bound)


def freq_within_three_sigma(name: str, violations: int, trials: int, bound: float) -> Assertion:
    """Tail-frequency check: frequency <= bound + 3*sqrt(bound(1-bound)/trials)."""
    sigma = math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)
    freq = violations / trials
    return Assertion(name, freq, bound, "freq <= bound + 3 sigma(binomial at bound)", freq <= bound + 3 * sigma)
