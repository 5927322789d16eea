"""Generalization bound for the averaging structured predictor.

Evaluates the explicit high-probability bound on the true margin-error:
an empirical margin rate, plus a discretization tail that is exponentially
small in the derived sample count m, plus a complexity term growing with
the divergence between learned and prior weight distributions.
"""

import math
from dataclasses import dataclass

__all__ = ["BoundInputs", "margin_sample_count", "pac_bound"]


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the margin bound.

    ``n``: training sample count; ``y_card``: number of candidate labelings
    per input; ``c``: bound on the discriminant's magnitude; ``gamma``:
    margin threshold; ``kl``: divergence of the learned weight distribution
    from its prior; ``delta``: confidence parameter; ``empirical_margin_rate``:
    fraction of training instances with margin at most gamma.
    """

    n: int
    y_card: int
    c: float
    gamma: float
    kl: float
    delta: float
    empirical_margin_rate: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.y_card < 2:
            raise ValueError("y_card must be at least 2")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.kl < 0:
            raise ValueError("kl must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 <= self.empirical_margin_rate <= 1.0:
            raise ValueError("empirical_margin_rate must lie in [0, 1]")


def margin_sample_count(inputs: BoundInputs) -> int:
    """Discretization size ceil(16 c^2 gamma^-2 ln(n y_card^2 / (kl + 1))).

    Clamped below at 1 (the derivation needs a natural number).  The log
    is taken term by term, so ``y_card`` may exceed the float range.
    Raises ``ValueError`` when m is not finite, as for a huge c / gamma.
    """
    log_ratio = (
        math.log(inputs.n) + 2.0 * math.log(inputs.y_card) - math.log(inputs.kl + 1.0)
    )
    try:
        value = 16.0 * inputs.c**2 / inputs.gamma**2 * log_ratio
    except (OverflowError, ZeroDivisionError):  # c**2 overflowed or gamma**2 underflowed
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            "sample count m = 16 c^2 / gamma^2 * ln(n y_card^2 / (kl + 1)) is not finite "
            f"(c={inputs.c:g}, gamma={inputs.gamma:g}, kl={inputs.kl:g})"
        )
    return max(1, math.ceil(value))


def pac_bound(inputs: BoundInputs) -> float:
    """Explicit bound on the true margin-error of the averaging predictor.

    empirical_margin_rate
      + y_card * exp(-m gamma^2 / (32 c^2))
      + sqrt((m kl + ln n + 3 ln((m + 1) / delta) + 2) / (2n - 1))

    with m from :func:`margin_sample_count`.  May exceed 1; vacuous bounds
    are returned as computed, not clipped.  The tail is evaluated in log
    space, so ``y_card`` may exceed the float range.
    """
    m = margin_sample_count(inputs)
    tail = math.exp(math.log(inputs.y_card) - m * inputs.gamma**2 / (32.0 * inputs.c**2))
    complexity = math.sqrt(
        (m * inputs.kl + math.log(inputs.n) + 3.0 * math.log((m + 1) / inputs.delta) + 2.0)
        / (2.0 * inputs.n - 1.0)
    )
    return inputs.empirical_margin_rate + tail + complexity
