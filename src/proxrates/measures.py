"""Strong-convexity conversions between performance measures, as checkable predicates.

The three conversions, which bound the distance by the residual, the gap by
the residual and the distance by the gap at one feasible point, are stated
once, in `rates.CONVERSIONS`. `check_proposition` checks each at one point;
the bound table composes each with the per-iteration contraction into the
mixed-measure trajectory bounds checked by `check_mixed_bound`. All slacks
are normalized by the magnitude of the quantities compared, so tolerances are
dimensionless across parameter scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import IterateTrace
from .rates import CONVERSIONS, ClassParams, MeasureKind, bound_lookup

__all__ = ["MeasureTriple", "check_proposition", "check_mixed_bound"]


@dataclass(frozen=True)
class MeasureTriple:
    dist_sq: float
    func_gap: float
    residual_grad_sq: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.dist_sq, self.residual_grad_sq) < 0:
            raise ValueError("squared measures must be nonnegative")


def _normalized_slack(lhs: float, rhs: float, floor: float = 0.0) -> float:
    """(rhs - lhs) / scale for the claim lhs <= rhs; 0 when both vanish.

    A negative raw slack smaller in magnitude than `floor` (the absolute
    double-precision noise of computing lhs and rhs) is indistinguishable
    from zero and reported as such.
    """
    raw = rhs - lhs
    if raw < 0 and -raw <= floor:
        return 0.0
    scale = max(abs(lhs), abs(rhs))
    return raw / scale if scale > 0 else 0.0


# Each conversion's slack by name, as (name, initial measure, final measure).
_PROPOSITION = (
    ("dist_le_residual_over_musq", MeasureKind.RESIDUAL_GRAD_SQ, MeasureKind.DISTANCE_SQ),
    ("gap_le_residual_over_2mu", MeasureKind.RESIDUAL_GRAD_SQ, MeasureKind.FUNC_GAP),
    ("dist_le_2gap_over_mu", MeasureKind.FUNC_GAP, MeasureKind.DISTANCE_SQ),
)


def check_proposition(
    triple: MeasureTriple,
    params: ClassParams,
    floors: MeasureTriple | None = None,
) -> list[tuple[str, float]]:
    """Normalized slacks of the three strong-convexity conversions (rates.CONVERSIONS) at one point.

    All slacks are >= 0 (up to rounding) for measures coming from a feasible
    point of a genuine mu-strongly-convex composite problem. `floors`, when
    given, carries the absolute noise floors of the three measures (see
    IterateTrace.measure_floor); apparent violations below them read as zero:
    the final measure's floor plus the converted floor of the initial one. A
    converted measure that leaves the float range is a ValueError.
    """
    params.require_strongly_convex()
    mu = params.mu
    f = floors if floors is not None else MeasureTriple(0.0, 0.0, 0.0)
    slacks = []
    for name, initial, final in _PROPOSITION:
        convert = CONVERSIONS[(initial, final)]
        try:
            bound = convert(getattr(triple, initial.value), mu)
            floor = convert(abs(getattr(f, initial.value)), mu)
        except (OverflowError, ZeroDivisionError):
            bound = math.inf
        if math.isinf(bound):
            raise ValueError(
                f"the {initial.value} -> {final.value} conversion {name} leaves the float range at mu = {mu}"
            )
        floor += abs(getattr(f, final.value))
        slacks.append((name, _normalized_slack(getattr(triple, final.value), bound, floor)))
    return slacks


def check_mixed_bound(
    trace: IterateTrace,
    init: MeasureKind,
    final: MeasureKind,
    k: int,
    conjectured: bool = False,
) -> float:
    """Normalized slack of bound(init -> final, k) * measure_0 - measure_k >= 0.

    Requires a fixed-step trace carrying both measures; a missing initial
    residual (no subgradient at x0) is an error because the residual-seeded
    bounds assume one exists.
    """
    if trace.method != "fixed":
        raise ValueError("mixed bounds are stated for fixed-step traces")
    if not 1 <= k < len(trace):
        raise ValueError(f"k must be in [1, {len(trace) - 1}]")
    params = trace.problem.params
    params.require_strongly_convex()
    gamma = trace.gammas[0]
    initial = trace.measure(init, 0)
    final_val = trace.measure(final, k)
    if initial is None or final_val is None:
        raise ValueError(
            f"trace lacks the required measures ({init.value} at 0, {final.value} at {k})"
        )
    bound = bound_lookup(init, final, params, gamma, k, conjectured=conjectured)
    floor = trace.measure_floor(final, k) + bound.value * trace.measure_floor(init, 0)
    return _normalized_slack(final_val, bound.value * initial, floor)
