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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .prox import NonnegIndicator, Zero
from .rates import ClassParams, MeasureKind, contraction, optimal_step
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
    """A concrete problem, start, horizon and the values it is predicted to attain."""

    problem: CompositeProblem
    x0: np.ndarray
    s0: np.ndarray | None
    N: int
    gamma: float | None
    predicted: dict[Cell, float]
    closed_form_iterates: Callable[[int], np.ndarray] | None = None
    note: str = ""


def quadratic_lower_bound(
    params: ClassParams, gamma: float, dim: int = 2, N: int = 10
) -> WorstCaseSpec:
    """Isotropic quadratic attaining the rate: curvature mu below the optimal
    step, curvature L above it (the branch achieving the contraction factor).

    All three measures contract by exactly rho^2 every iteration, so the
    predicted N-step factor for each non-mixed measure pair is rho^(2N).
    """
    params.require_strongly_convex()
    if not 0 <= gamma <= 2.0 / params.L * (1 + 1e-12):
        raise ValueError("attaining instances exist only for 0 <= gamma <= 2/L")
    a = params.mu if gamma <= 2.0 / (params.L + params.mu) else params.L
    f = ScaledSqNorm(a, dim, params)
    problem = CompositeProblem(f, Zero(dim), known_optimum=(np.zeros(dim), 0.0))
    x0 = np.ones(dim)
    decay = contraction(params, gamma).geometric(N)
    predicted = {(m, m): decay for m in MeasureKind}
    factor = 1.0 - gamma * a

    def closed_form(k: int) -> np.ndarray:
        return factor**k * x0

    return WorstCaseSpec(problem, x0, np.zeros(dim), N, gamma, predicted, closed_form)


def mixed_measure_instance(
    params: ClassParams, N: int, x0: float, target: Cell, dim: int = 1
) -> WorstCaseSpec:
    """Constrained 1-d quadratic min_{x>=0} (mu/2) x^2 + c x at step 1/L.

    With kappa = mu/L the iterates follow x_{k+1} = (1-kappa) x_k - c/L as
    long as they stay nonnegative, i.e.

        x_k = (c (1-kappa)^k - c + kappa L (1-kappa)^k x0) / (kappa L).

    The slope c is tuned per target cell: maximizing the final function gap
    gives c = mu x0 / ((1-kappa)^(-2N) - 1); driving x_N onto the constraint
    (maximal final residual) gives c = mu x0 / ((1-kappa)^(-N) - 1). The
    predicted values are the step-1/L conjectured-tight bounds

        F(x_N) - F*            = (mu/2) x0^2 / (rho^(-2N) - 1),
        ||grad f(x_N) + s_N||^2 = mu^2 x0^2 / (rho^(-N) - 1)^2,
        ||grad f(x_N) + s_N||^2 = 2 mu (F(x0) - F*) / (rho^(-2N) - 1),

    with rho = 1 - kappa. Embeddings with dim > 1 pad every vector with
    zeros, which changes no measure.
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

    kappa = mu / L
    q = 1.0 - kappa
    if target is DIST_TO_FUNCGAP:
        c = mu * x0 / (q ** (-2 * N) - 1.0)
    else:
        c = mu * x0 / (q ** (-N) - 1.0)

    def closed_form_scalar(k: int) -> float:
        return (c * q**k - c + kappa * L * q**k * x0) / (kappa * L)

    worst_xk = min(closed_form_scalar(k) for k in range(N + 1))
    if worst_xk < -1e-12 * x0:
        raise ValueError("tuned slope c is too large: an iterate leaves the orthant")

    gamma = 1.0 / L
    rate = contraction(params, gamma)
    F0 = 0.5 * mu * x0**2 + c * x0
    if target is DIST_TO_FUNCGAP:
        value = 0.5 * mu * x0**2 / (rate.rho ** (-2 * N) - 1.0)
    elif target is DIST_TO_RESIDUAL:
        value = mu**2 * x0**2 / (rate.rho ** (-N) - 1.0) ** 2
    else:
        value = 2.0 * mu * F0 / (rate.rho ** (-2 * N) - 1.0)
        # the two equivalent forms of the constraint-tightening slope agree
        c_alt = math.sqrt(2.0 * mu * F0) / math.sqrt(q ** (-2 * N) - 1.0)
        if not math.isclose(c, c_alt, rel_tol=1e-12):
            raise AssertionError("inconsistent closed forms for the tuned slope c")

    def closed_form(k: int) -> np.ndarray:
        out = np.zeros(dim)
        out[0] = closed_form_scalar(k)
        return out

    x0_vec = np.zeros(dim)
    x0_vec[0] = x0
    f = DiagonalQuadratic(np.full(dim, mu), np.concatenate([[c], np.zeros(dim - 1)]), params)
    problem = CompositeProblem(f, NonnegIndicator(dim), known_optimum=(np.zeros(dim), 0.0))
    note = "padded to dim > 1; measures unchanged" if dim > 1 else ""
    return WorstCaseSpec(
        problem, x0_vec, np.zeros(dim), N, gamma, {target: value}, closed_form, note
    )


def unbounded_family(
    c: float, dim: int = 1, x0: float = 1.0, N: int = 5, L: float = 1.0
) -> WorstCaseSpec:
    """Linear program min_{x>=0} c x run as a mu = 0 composite problem at step 1/L.

    Starting from x0 > 0 the iterates are x_k = max(0, x0 - k c / L); with the
    canonical initial subgradient s0 = 0 the initial residual is c^2 while the
    final distance and function gap stay of order x0. The three witness
    ratios recorded in `predicted`,

        dist_N / gap_0 = x_N^2 / (c x0)       (~ 1/c),
        dist_N / res_0 = x_N^2 / c^2          (~ 1/c^2),
        gap_N / res_0  = x_N / c              (~ 1/c),

    grow without bound as c -> 0, which is exactly what the unbounded cells
    of the mu = 0 table assert. x0 = 0 starts at the optimum and every
    iterate stays there.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    if x0 < 0:
        raise ValueError("x0 must be feasible (x0 >= 0)")
    params = ClassParams(0.0, L)
    b = np.zeros(dim)
    b[0] = c
    f = DiagonalQuadratic(np.zeros(dim), b, params)
    problem = CompositeProblem(f, NonnegIndicator(dim), known_optimum=(np.zeros(dim), 0.0))
    x0_vec = np.zeros(dim)
    x0_vec[0] = x0

    def closed_form(k: int) -> np.ndarray:
        out = np.zeros(dim)
        out[0] = max(0.0, x0 - k * c / L)
        return out

    predicted: dict[Cell, float] = {}
    if x0 > 0:
        xN = max(0.0, x0 - N * c / L)
        predicted = {
            (MeasureKind.FUNC_GAP, MeasureKind.DISTANCE_SQ): xN**2 / (c * x0),
            (MeasureKind.RESIDUAL_GRAD_SQ, MeasureKind.DISTANCE_SQ): xN**2 / c**2,
            (MeasureKind.RESIDUAL_GRAD_SQ, MeasureKind.FUNC_GAP): c * xN / c**2,
        }
    return WorstCaseSpec(
        problem, x0_vec, np.zeros(dim), N, 1.0 / L, predicted, closed_form,
        note="witness ratios scale like inverse powers of c",
    )


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
    return WorstCaseSpec(
        problem, x0, np.zeros(2), N, None, predicted, closed_form,
        note="predicted value is the per-step function-gap ratio under exact line search",
    )
