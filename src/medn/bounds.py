"""Generalization bound for the averaging structured predictor.

Evaluates the explicit high-probability bound on the true margin-error:
an empirical margin rate, plus a discretization tail that is exponentially
small in the derived sample count m, plus a complexity term growing with
the divergence between learned and prior weight distributions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .chain import _check_count, _check_real

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
        object.__setattr__(self, "n", _check_count("n", self.n, 1, None))
        object.__setattr__(self, "y_card", _check_count("y_card", self.y_card, 2, None))
        for name, within in (("c", "positive and finite"), ("gamma", "positive and finite"),
                             ("kl", "nonnegative and finite"), ("delta", "in (0, 1)"),
                             ("empirical_margin_rate", "in [0, 1]")):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), within))


def margin_sample_count(inputs: BoundInputs) -> int:
    """Discretization size ceil(16 c^2 gamma^-2 ln(n y_card^2 / (kl + 1))).

    Clamped below at 1 (the derivation needs a natural number).  The log
    is taken term by term, so ``n`` and ``y_card`` may exceed the float
    range; below 2 the ratio is exact and its log is log1p(ratio - 1),
    since c^2 / gamma^2 would magnify the cancellation of two nearly equal
    logs.  Raises ``ValueError`` when m is not finite, as for a huge c / gamma.
    """
    ratio = Fraction(inputs.n * inputs.y_card**2) / (Fraction(inputs.kl) + 1)
    if ratio <= 1:
        return 1
    if ratio < 2:
        log_ratio = math.log1p(float(ratio - 1))
    else:
        log_ratio = (
            math.log(inputs.n) + 2.0 * math.log(inputs.y_card) - math.log(inputs.kl + 1.0)
        )
    scale = inputs.c / inputs.gamma  # a float product overflows to inf, never raises
    value = 16.0 * scale * scale * log_ratio
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
    are returned as computed, not clipped.  The tail, and the complexity
    term once 2n - 1 is past the float range, are evaluated in log space, so
    ``n`` and ``y_card`` may exceed it.  Raises ``ValueError`` when m * kl
    overflows.
    """
    m = margin_sample_count(inputs)
    inv_scale = inputs.gamma / inputs.c
    tail = math.exp(math.log(inputs.y_card) - m * inv_scale * inv_scale / 32.0)
    numerator = (
        m * inputs.kl
        + math.log(inputs.n)
        + 3.0 * (math.log(m + 1) - math.log(inputs.delta))
        + 2.0
    )
    if not math.isfinite(numerator):
        raise ValueError(f"complexity term m * kl is not finite (m={m}, kl={inputs.kl:g})")
    try:
        complexity = math.sqrt(numerator / (2 * inputs.n - 1))
    except OverflowError:  # 2n - 1 is past the float range
        complexity = math.exp(0.5 * (math.log(numerator) - math.log(2 * inputs.n - 1)))
    return inputs.empirical_margin_rate + tail + complexity
