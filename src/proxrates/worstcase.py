"""Generators of instances attaining the worst-case rates.

Four families:

* isotropic quadratics whose single PGM step contracts exactly by the rate
  factor, for every step size in [0, 2/L];
* one-dimensional constrained quadratics min_{x>=0} (mu/2) x^2 + c x at step
  size 1/L, with c tuned so the trajectory attains the conjectured-tight
  mixed-measure values;
* the linear family min_{x>=0} c x whose mixed-measure ratios grow without
  bound as c shrinks (the mu = 0 unbounded cells);
* the two-dimensional quadratic on which exact line search zigzags at the
  optimal-rate contraction every step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .prox import NonnegIndicator, Zero
from .rates import ClassParams, MeasureKind, _geometric_minus_one, _max_step, bound_lookup, contraction, optimal_step
from .smooth import CompositeProblem, DiagonalQuadratic, ScaledSqNorm

__all__ = [
    "WorstCaseSpec",
    "DIST_TO_FUNCGAP",
    "DIST_TO_RESIDUAL",
    "FUNCGAP_TO_RESIDUAL",
    "quadratic_lower_bound",
    "mixed_measure_instance",
    "unbounded_family",
    "els_worst_quadratic",
]

Cell = tuple[MeasureKind, MeasureKind]

DIST_TO_FUNCGAP: Cell = (MeasureKind.DISTANCE_SQ, MeasureKind.FUNC_GAP)
DIST_TO_RESIDUAL: Cell = (MeasureKind.DISTANCE_SQ, MeasureKind.RESIDUAL_GRAD_SQ)
FUNCGAP_TO_RESIDUAL: Cell = (MeasureKind.FUNC_GAP, MeasureKind.RESIDUAL_GRAD_SQ)
_MIXED_CELLS = (DIST_TO_FUNCGAP, DIST_TO_RESIDUAL, FUNCGAP_TO_RESIDUAL)


@dataclass
class WorstCaseSpec:
    """A concrete problem, start, horizon and the values it is predicted to attain.

    `predicted` maps (initial, final) measure cells to a value whose meaning
    depends on the generator:

    * quadratic_lower_bound and unbounded_family: the ratio of the final
      measure at N to the initial measure at 0;
    * mixed_measure_instance: the final measure at N itself;
    * els_worst_quadratic: the per-step function-gap ratio under exact line
      search (gamma is None there: the line search picks each step).

    closed_form_iterates(k) is the iterate x_k the method reaches at step k.
    """

    problem: CompositeProblem
    x0: np.ndarray
    s0: np.ndarray | None
    N: int
    gamma: float | None
    predicted: dict[Cell, float]
    closed_form_iterates: Callable[[int], np.ndarray]


def _square(value: float) -> float:
    """value**2, or +inf where it overflows (a float ** raises OverflowError there)."""
    try:
        return value**2
    except OverflowError:
        return math.inf


def _is_normal(value: float) -> bool:
    """Whether value is finite and at least the smallest normal float in magnitude."""
    return sys.float_info.min <= abs(value) < math.inf


def _on_orthant(params: ClassParams, c: float, x0: float, N: int, predicted: dict, position: Callable) -> WorstCaseSpec:
    """min_{x>=0} (mu/2) x^2 + c x over R^1, from x0 at step 1/L, with x_k = position(k).

    For c > 0 the optimum is x* = 0 with F* = 0, and s0 = 0 is a subgradient
    of the constraint at every feasible x0.
    """
    f = DiagonalQuadratic([params.mu], [c], params)
    problem = CompositeProblem(f, NonnegIndicator(1), known_optimum=(np.zeros(1), 0.0))
    return WorstCaseSpec(problem, np.array([x0], dtype=float), np.zeros(1), N, 1.0 / params.L, predicted,
                         lambda k: np.array([position(k)], dtype=float))


def quadratic_lower_bound(
    params: ClassParams, gamma: float, dim: int = 2, N: int = 10
) -> WorstCaseSpec:
    """Isotropic quadratic attaining the rate: curvature mu below the optimal
    step, curvature L above it (the branch achieving the contraction factor).

    All three measures contract by exactly rho^2 every iteration, so the
    predicted N-step factor for each non-mixed measure pair is rho^(2N).
    From x0 = (1, ..., 1) the initial gap is a dim / 2 and the initial
    residual a^2 dim; a curvature a for which either is not a normal float
    raises ValueError, and so does an N for which rho > 0 but rho^(2N) times
    any initial measure is not a normal float. An exact rho = 0 (mu = L at
    the optimal step) predicts an exact 0.
    """
    params.require_strongly_convex()
    if not 0 <= gamma <= _max_step(params.L):
        raise ValueError("attaining instances exist only for 0 <= gamma <= 2/L")
    if N < 0:
        raise ValueError("N must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    a = params.mu if gamma <= 2.0 / (params.L + params.mu) else params.L
    initial = (dim, a * dim / 2, _square(a) * dim)
    if not all(map(_is_normal, initial)):
        raise ValueError(
            f"curvature a = {a} gives the initial gap {initial[1]} and residual {initial[2]}; "
            "both must be normal floats"
        )
    rate = contraction(params, gamma)
    decay = rate.geometric(N)
    if rate.rho > 0 and not all(_is_normal(decay * m) for m in initial):
        raise ValueError(f"N = {N} gives rho^(2N) = {decay}: the final measures it predicts must be normal floats")
    f = ScaledSqNorm(a, dim, params)
    problem = CompositeProblem(f, Zero(dim), known_optimum=(np.zeros(dim), 0.0))
    x0 = np.ones(dim)
    predicted = {(m, m): decay for m in MeasureKind}
    factor = 1.0 - gamma * a

    def closed_form(k: int) -> np.ndarray:
        return factor**k * x0

    return WorstCaseSpec(problem, x0, np.zeros(dim), N, gamma, predicted, closed_form)


def mixed_measure_instance(params: ClassParams, N: int, x0: float, target: Cell) -> WorstCaseSpec:
    """Constrained 1-d quadratic min_{x>=0} (mu/2) x^2 + c x at step 1/L.

    With kappa = mu/L the iterates follow x_{k+1} = (1-kappa) x_k - c/L as
    long as they stay nonnegative, i.e.

        x_k = (c (1-kappa)^k - c + kappa L (1-kappa)^k x0) / (kappa L).

    The slope c is tuned per target cell: maximizing the final function gap
    gives c = mu x0 / ((1-kappa)^(-2N) - 1); driving x_N onto the constraint
    (maximal final residual) gives c = mu x0 / ((1-kappa)^(-N) - 1). Either
    way every iterate stays nonnegative. The predicted value is the target's
    `step_1_over_L` cell of `rates.BOUND_TABLES` times the initial measure:
    x0^2, or F(x0) - F* = (mu/2) x0^2 + c x0; an x0 for which either is
    not a normal float raises ValueError.
    """
    params.require_strongly_convex()
    mu, L = params.mu, params.L
    if mu >= L:
        raise ValueError("requires mu < L (rho = 1 - mu/L must be positive)")
    if N < 1:
        raise ValueError("horizon N must be >= 1 (the tuning of c divides by rho^(-N) - 1)")
    if not x0 > 0:
        raise ValueError("x0 must be a positive scalar")
    if target not in _MIXED_CELLS:
        raise ValueError(f"target must be one of {_MIXED_CELLS}")

    gamma = 1.0 / L
    init, final = target
    bound = bound_lookup(init, final, params, gamma, N, conjectured=True).value
    c = mu * x0 / _geometric_minus_one(mu * gamma, 2 * N if target is DIST_TO_FUNCGAP else N)
    initial = _square(x0) if init is MeasureKind.DISTANCE_SQ else 0.5 * mu * _square(x0) + c * x0
    predicted = initial * bound
    if not (_is_normal(initial) and _is_normal(predicted)):
        raise ValueError(
            f"x0 = {x0} gives the initial measure {initial} and the predicted value {predicted}; "
            "both must be normal floats"
        )
    kappa = mu / L
    q = 1.0 - kappa
    return _on_orthant(params, c, x0, N, {target: predicted},
                       lambda k: (c * q**k - c + kappa * L * q**k * x0) / (kappa * L))


def unbounded_family(c: float, x0: float = 1.0, N: int = 5, L: float = 1.0) -> WorstCaseSpec:
    """Linear program min_{x>=0} c x run as a mu = 0 composite problem at step 1/L.

    Starting from x0 > 0 the iterates are x_k = max(0, x0 - k c / L); with the
    canonical initial subgradient s0 = 0 the initial residual is c^2 while the
    final distance and function gap stay of order x0. The three witness
    ratios recorded in `predicted`,

        dist_N / gap_0 = x_N^2 / (c x0)       (~ 1/c),
        dist_N / res_0 = x_N^2 / c^2          (~ 1/c^2),
        gap_N / res_0  = x_N / c              (~ 1/c),

    grow without bound as c -> 0, which is exactly what the unbounded cells
    of the mu = 0 table assert. A c whose divisors c x0 and c^2 are not
    normal floats, or whose ratios are not finite, raises ValueError.
    x0 = 0 starts at the optimum and every iterate stays there.
    """
    params = ClassParams(0.0, L)
    if not c > 0:
        raise ValueError("c must be positive")
    if not x0 >= 0:
        raise ValueError("x0 must be feasible (x0 >= 0)")
    if N < 0:
        raise ValueError("N must be >= 0")
    predicted: dict[Cell, float] = {}
    if x0 > 0:
        xN = max(0.0, x0 - N * c / L)
        gap0, res0 = c * x0, _square(c)
        if not (_is_normal(gap0) and _is_normal(res0)):
            raise ValueError(
                f"c = {c} gives the initial gap {gap0} and residual {res0} (x0 = {x0}); both must be normal floats"
            )
        predicted = {
            (MeasureKind.FUNC_GAP, MeasureKind.DISTANCE_SQ): _square(xN) / gap0,
            (MeasureKind.RESIDUAL_GRAD_SQ, MeasureKind.DISTANCE_SQ): _square(xN) / res0,
            (MeasureKind.RESIDUAL_GRAD_SQ, MeasureKind.FUNC_GAP): c * xN / res0,
        }
        if not all(map(math.isfinite, predicted.values())):
            raise ValueError(f"c = {c} gives a predicted ratio beyond the float range (x0 = {x0})")
    return _on_orthant(params, c, x0, N, predicted, lambda k: max(0.0, x0 - k * c / L))


def els_worst_quadratic(params: ClassParams, N: int = 10) -> WorstCaseSpec:
    """Two-dimensional quadratic 0.5*(mu x1^2 + L x2^2) from x0 = (1/mu, 1/L).

    Exact line search zigzags between the scaled eigendirections: the
    iterates are rho*^k (1/mu, (-1)^k / L) and the function gap contracts by
    exactly rho*^2 = ((L-mu)/(L+mu))^2 every step, matching the optimal
    fixed-step rate.
    """
    params.require_strongly_convex()
    mu, L = params.mu, params.L
    if mu >= L:
        raise ValueError("degenerate for mu = L: one exact-line-search step converges")
    if N < 1:
        raise ValueError("horizon N must be >= 1 (the prediction is a per-step ratio)")
    f = DiagonalQuadratic(np.array([mu, L]), None, params)
    problem = CompositeProblem(f, Zero(2), known_optimum=(np.zeros(2), 0.0))
    x0 = np.array([1.0 / mu, 1.0 / L])
    _, rate = optimal_step(params)

    def closed_form(k: int) -> np.ndarray:
        return rate.rho**k * np.array([1.0 / mu, (-1.0) ** k / L])

    predicted = {(MeasureKind.FUNC_GAP, MeasureKind.FUNC_GAP): rate.rho_squared}
    return WorstCaseSpec(problem, x0, np.zeros(2), N, None, predicted, closed_form)
