"""Proximal gradient method with fixed step and with exact line search.

Every run produces a fully instrumented trace: iterates, gradients, the
subgradient extracted from each prox step via

    s_{k+1} = (x_k - x_{k+1}) / gamma - grad f(x_k),

the composite value, and the three performance measures (squared distance to
the optimum, function-value gap, squared residual gradient norm) wherever the
optimum is available. The residual measure at an iterate always uses that
iterate's own gradient and subgradient, which distinguishes it from the
gradient mapping (x_k - x_{k+1}) / gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prox import Zero
from .rates import MeasureKind
from .smooth import CompositeProblem, SmoothFunction, diagonal_form

__all__ = [
    "IterateRecord",
    "IterateTrace",
    "LineSearchError",
    "pgm_step",
    "run",
    "exact_line_search_step",
    "run_exact_line_search",
    "residual_line_search_step",
]

_MEMBERSHIP_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_FLOOR_FACTOR = 256.0


class LineSearchError(RuntimeError):
    """The line-search objective is unbounded below; carries the step and the point reached."""

    def __init__(self, message: str, gamma: float, x):
        super().__init__(message)
        self.gamma = gamma
        self.x = x


@dataclass
class IterateRecord:
    x: np.ndarray
    grad_f: np.ndarray
    s: np.ndarray | None
    F_val: float
    dist_sq: float | None
    func_gap: float | None
    residual_grad_sq: float | None

    def measure(self, kind: MeasureKind) -> float | None:
        return getattr(self, kind.value)


@dataclass
class IterateTrace:
    problem: CompositeProblem
    records: list[IterateRecord]
    gammas: list[float]
    method: str = "fixed"
    outside_theory: bool = False

    def __len__(self) -> int:
        return len(self.records)

    def measure(self, kind: MeasureKind, k: int) -> float | None:
        return self.records[k].measure(kind)

    def measure_floor(self, kind: MeasureKind, k: int) -> float:
        """Absolute double-precision noise floor of measure `kind` at record k.

        The function gap is a difference of comparable values, the distance a
        square of one, and the residual a square of the gradient/subgradient
        sum; each inherits a floor of a few hundred ulps of its inputs. Below
        this level the stored value carries no information, a measured "gap"
        may even be negative, and no ratio or bound check is meaningful.
        """
        rec = self.records[k]
        if kind is MeasureKind.FUNC_GAP:
            return _FLOOR_FACTOR * _EPS * max(abs(rec.F_val), self._optimum_scale[1])
        if kind is MeasureKind.DISTANCE_SQ:
            return (_FLOOR_FACTOR * _EPS * max(float(np.linalg.norm(rec.x)), self._optimum_scale[0])) ** 2
        if rec.s is None:
            return 0.0
        scale = float(np.linalg.norm(rec.grad_f)) + float(np.linalg.norm(rec.s))
        return (_FLOOR_FACTOR * _EPS * scale) ** 2

    @cached_property
    def _optimum_scale(self) -> tuple[float, float]:
        """(||x*||, |F*|) for the floors, zeros when the optimum is unknown."""
        opt = self.problem.try_optimum()
        return (float(np.linalg.norm(opt[0])), abs(opt[1])) if opt is not None else (0.0, 0.0)

    def step_ratios(self, kind: MeasureKind) -> list[float | None]:
        """measure(k+1) / measure(k) per step.

        None where a measure is missing, zero, or below its noise floor (a
        ratio of rounding noise says nothing about contraction).
        """
        out: list[float | None] = []
        for k, (prev, nxt) in enumerate(zip(self.records, self.records[1:])):
            a, b = prev.measure(kind), nxt.measure(kind)
            defined = a is not None and b is not None and a > self.measure_floor(kind, k)
            out.append(b / a if defined else None)
        return out


def _record(problem: CompositeProblem, x, s, optimum) -> IterateRecord:
    grad = problem.f.grad(x)
    F_val = problem.value(x)
    dist_sq = func_gap = residual = None
    if optimum is not None:
        x_star, F_star = optimum
        dist_sq = float(np.sum((x - x_star) ** 2))
        func_gap = F_val - F_star
    if s is not None:
        r = grad + s
        residual = float(r @ r)
    return IterateRecord(x, grad, s, F_val, dist_sq, func_gap, residual)


def pgm_step(
    problem: CompositeProblem, gamma: float, x_k, grad_k=None
) -> tuple[np.ndarray, np.ndarray]:
    """One proximal gradient step; returns (x_{k+1}, s_{k+1}).

    gamma must be strictly positive: the extracted subgradient divides by it.
    """
    if not gamma > 0:
        raise ValueError("pgm_step requires gamma > 0")
    x_k = np.asarray(x_k, dtype=float)
    grad_k = problem.f.grad(x_k) if grad_k is None else np.asarray(grad_k, dtype=float)
    x_next = problem.h.prox(gamma, x_k - gamma * grad_k)
    s_next = (x_k - x_next) / gamma - grad_k
    return x_next, s_next


def _initial_subgradient(problem: CompositeProblem, x0, s0):
    if s0 is not None:
        s0 = np.asarray(s0, dtype=float)
        if not problem.h.subgradient_membership(x0, s0, _MEMBERSHIP_TOL):
            raise ValueError("supplied s0 is not a subgradient of h at x0")
        return s0
    try:
        return problem.h.subgradient(x0)
    except NotImplementedError:
        return None


def _iterate(problem: CompositeProblem, x0, N: int, s0, step_size) -> tuple[list[IterateRecord], list[float]]:
    """The PGM loop: records 0..N and the N steps, each gamma = step_size(x_k, grad f(x_k))."""
    if N < 0:
        raise ValueError("N must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    if math.isinf(problem.h.value(x0)):
        raise ValueError("infeasible start: F(x0) = +inf")
    optimum = problem.try_optimum()
    records = [_record(problem, x0, _initial_subgradient(problem, x0, s0), optimum)]
    gammas: list[float] = []
    for _ in range(N):
        x, grad = records[-1].x, records[-1].grad_f
        gamma = step_size(x, grad)
        x, s = pgm_step(problem, gamma, x, grad)
        records.append(_record(problem, x, s, optimum))
        gammas.append(gamma)
    return records, gammas


def run(
    problem: CompositeProblem,
    gamma: float,
    x0,
    N: int,
    s0=None,
) -> IterateTrace:
    """Run N fixed-step PGM iterations from x0, producing N+1 records.

    x0 must be feasible (F(x0) finite). Record 0 carries s0 when supplied, the
    canonical subgradient of h at x0 otherwise. Steps with gamma > 2/L are
    allowed for exploration but mark the trace as outside the theory.
    """
    if N >= 0 and not gamma > 0:  # a negative N is reported first, by _iterate
        raise ValueError("run requires gamma > 0")
    records, gammas = _iterate(problem, x0, N, s0, lambda x, grad: gamma)
    outside = gamma > 2.0 / problem.params.L * (1 + 1e-12)
    return IterateTrace(problem, records, gammas, "fixed", outside)


def exact_line_search_step(
    problem: CompositeProblem, x_k, grad_k=None
) -> tuple[float, np.ndarray]:
    """Step size minimizing phi(t) = F(prox(h, t, x_k - t grad f(x_k))) over t > 0, and the new point.

    With h = 0 the quadratic catalog admits the closed form
    gamma = <g, g> / <g, Hg>, for every f. Otherwise f must be separable
    (ScaledSqNorm or DiagonalQuadratic; a DenseQuadratic raises ValueError).
    Every catalog h is separable too, so each coordinate of the prox path is
    piecewise affine in t (`ProxFunction.prox_path`) and phi is piecewise
    quadratic between the sorted breakpoints of all coordinates. Each piece
    is minimized in closed form and the best piece wins: the result is the
    global minimizer, exact up to rounding, whether or not phi is unimodal.
    The only failure is an objective unbounded below on the last piece,
    reported as LineSearchError. A start where no step decreases phi (an
    optimum) returns the step 1/L, which stays put. grad_k, when given, is
    grad f(x_k), as in pgm_step.
    """
    x_k = np.asarray(x_k, dtype=float)
    g = problem.f.grad(x_k) if grad_k is None else np.asarray(grad_k, dtype=float)
    if isinstance(problem.h, Zero):
        Hg = problem.f.hess_vec(g)
        denom = float(g @ Hg)
        gnorm = float(g @ g)
        if gnorm == 0.0:
            return 1.0 / problem.params.L, x_k.copy()
        if denom <= 0.0:
            raise LineSearchError("objective is unbounded along the gradient ray", math.inf, x_k)
        gamma = gnorm / denom
        return gamma, x_k - gamma * g

    d, b = diagonal_form(problem.f)
    if math.isinf(problem.h.value(x_k)):
        raise ValueError("infeasible start: F(x_k) = +inf")
    breaks, p0, p1, slope = problem.h.prox_path(x_k, g)
    # phi_i(t) = 0.5 d_i p_i^2 + (b_i + slope) p_i on each segment of coordinate i
    e = b + slope
    coef = np.stack([0.5 * d * p1 * p1, (d * p0 + e) * p1, (0.5 * d * p0 + e) * p0], -1)
    reached = np.isfinite(breaks)
    order = np.argsort(breaks[reached])
    ts = breaks[reached][order]
    jumps = (coef[1:] - coef[:-1])[reached][order]
    # The last piece is summed directly from the segment each coordinate ends
    # on, so pinned coordinates add exact zeros to its c2 and c1 and an
    # unbounded last piece is detected exactly. Each earlier piece subtracts
    # the jumps at later breakpoints only: a jump at time T is of order
    # F_i / T^2, F_i / T and F_i in (c2, c1, c0), with F_i the coordinate's
    # share of F, so on a piece before T its rounding stays of order eps * F_i.
    last = coef[reached.sum(0), np.arange(len(x_k))].sum(0)
    pieces = last - np.concatenate([np.cumsum(jumps[::-1], 0)[::-1], np.zeros((1, 3))])
    c2, c1, c0 = pieces.T
    if c2[-1] == 0.0 and c1[-1] < 0.0:
        raise LineSearchError("objective is unbounded along the prox path", math.inf, x_k)
    # Best point of each piece: its clipped vertex, or its left end when it is
    # not strictly convex (its right end is the next piece's left end, and
    # that piece's best point is no worse).
    lo, hi = np.concatenate([[0.0], ts]), np.concatenate([ts, [np.inf]])
    t = np.clip(np.divide(-c1, 2.0 * c2, out=lo.copy(), where=c2 > 0.0), lo, hi)
    gamma = float(t[np.argmin((c2 * t + c1) * t + c0)]) or 1.0 / problem.params.L
    return gamma, problem.h.prox(gamma, x_k - gamma * g)


def run_exact_line_search(problem: CompositeProblem, x0, N: int) -> IterateTrace:
    """N exact-line-search steps; per-step gamma recorded, subgradients from the prox."""
    records, gammas = _iterate(
        problem, x0, N, None, lambda x, grad: exact_line_search_step(problem, x, grad)[0]
    )
    return IterateTrace(problem, records, gammas, "els", False)


def residual_line_search_step(f: SmoothFunction, x_k) -> tuple[float, np.ndarray]:
    """Line search along the gradient minimizing the next gradient norm (h = 0 only).

    Returns (alpha, x_{k+1}) with x_{k+1} = x_k + alpha * grad f(x_k); for the
    quadratic catalog alpha = -<g, Hg> / <Hg, Hg> is exact. The composite
    analogue has no available procedure and is out of scope.
    """
    x_k = np.asarray(x_k, dtype=float)
    g = f.grad(x_k)
    Hg = f.hess_vec(g)
    denom = float(Hg @ Hg)
    if denom == 0.0:
        return 0.0, x_k.copy()
    alpha = -float(g @ Hg) / denom
    return alpha, x_k + alpha * g
