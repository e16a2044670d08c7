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
_BLOCK = 1 << 16  # floats per temporary when a measure is computed over rows


class LineSearchError(RuntimeError):
    """The line-search objective is unbounded below; carries the step and the point reached."""

    def __init__(self, message: str, gamma: float, x):
        super().__init__(message)
        self.gamma = gamma
        self.x = x


@dataclass
class IterateRecord:
    """Iterate k of a trace: views of its rows, with None for an undefined measure."""

    x: np.ndarray
    grad_f: np.ndarray
    s: np.ndarray | None
    F_val: float
    dist_sq: float | None
    func_gap: float | None
    residual_grad_sq: float | None

    def measure(self, kind: MeasureKind) -> float | None:
        return getattr(self, kind.value)


class IterateTrace:
    """A run stored as columns: row k of every array belongs to iterate k.

    X, G and S are the (N+1, dim) iterates, gradients of f and subgradients
    of h, and F the composite values. `measures[kind]` holds each
    performance measure; an entry is meaningful only where `defined[kind]`
    is True (the distance and the gap need the optimum, the residual at
    iterate 0 a subgradient of h at x0). The noise floors (`floors`) and the
    step ratios are computed for every iterate at once, on first use; a run
    whose floors are never read (a library line-search run) does not pay for
    them. `records` lists the rows as IterateRecords, built on each access.
    """

    def __init__(
        self,
        problem: CompositeProblem,
        X: np.ndarray,
        G: np.ndarray,
        S: np.ndarray,
        F: np.ndarray,
        s0_known: bool,
        optimum: tuple[np.ndarray, float] | None,
        gammas: list[float],
        method: str = "fixed",
        outside_theory: bool = False,
    ):
        self.problem, self.X, self.G, self.S, self.F = problem, X, G, S, F
        self.gammas, self.method, self.outside_theory = gammas, method, outside_theory
        self._optimum = optimum
        n = len(F)
        has_opt = np.full(n, optimum is not None)
        has_s = np.ones(n, dtype=bool)
        has_s[0] = s0_known
        self.defined = {
            MeasureKind.DISTANCE_SQ: has_opt,
            MeasureKind.FUNC_GAP: has_opt,
            MeasureKind.RESIDUAL_GRAD_SQ: has_s,
        }
        if optimum is None:
            dist = gap = np.full(n, np.nan)
        else:
            x_star, F_star = optimum
            dist = _row_blocks(lambda x: np.sum((x - x_star) ** 2, axis=1), X)
            gap = F - F_star
        self.measures = {
            MeasureKind.DISTANCE_SQ: dist,
            MeasureKind.FUNC_GAP: gap,
            MeasureKind.RESIDUAL_GRAD_SQ: _row_blocks(lambda g, s: _row_dots(g + s), G, S),
        }

    @cached_property
    def floors(self) -> dict[MeasureKind, np.ndarray]:
        """The noise floor of each measure at each iterate (see _noise_floors)."""
        has_s = self.defined[MeasureKind.RESIDUAL_GRAD_SQ]
        return _noise_floors(self.X, self.G, self.S, self.F, self._optimum, has_s)

    @cached_property
    def _ratios(self) -> dict[MeasureKind, list[float | None]]:
        return {m: _ratios(self.measures[m], self.defined[m], self.floors[m]) for m in MeasureKind}

    @property
    def records(self) -> list[IterateRecord]:
        has_s = self.defined[MeasureKind.RESIDUAL_GRAD_SQ]
        return [
            IterateRecord(self.X[k], self.G[k], self.S[k] if has_s[k] else None, float(self.F[k]),
                          *(self.measure(m, k) for m in MeasureKind))
            for k in range(len(self))
        ]

    def __len__(self) -> int:
        return len(self.F)

    def measure(self, kind: MeasureKind, k: int) -> float | None:
        return float(self.measures[kind][k]) if self.defined[kind][k] else None

    def measure_floor(self, kind: MeasureKind, k: int) -> float:
        """Absolute double-precision noise floor of measure `kind` at iterate k (see _noise_floors)."""
        return float(self.floors[kind][k])

    def step_ratios(self, kind: MeasureKind) -> list[float | None]:
        """measure(k+1) / measure(k) per step.

        None where a measure is missing, zero, or below its noise floor (a
        ratio of rounding noise says nothing about contraction).
        """
        return list(self._ratios[kind])


def _noise_floors(X, G, S, F, optimum, has_s) -> dict[MeasureKind, np.ndarray]:
    """Absolute double-precision noise floor of each measure at each iterate.

    The function gap is a difference of comparable values, the distance a
    square of one, and the residual a square of the gradient/subgradient
    sum; each inherits a floor of a few hundred ulps of its inputs. Below
    this level the stored value carries no information, a measured "gap"
    may even be negative, and no ratio or bound check is meaningful. The
    optimum's scale (||x*||, |F*|) enters when the optimum is known; the
    residual floor is 0 where `has_s` says no subgradient is known.
    """
    x_scale, F_scale = (float(np.linalg.norm(optimum[0])), abs(optimum[1])) if optimum else (0.0, 0.0)
    unit = _FLOOR_FACTOR * _EPS
    residual = (unit * (np.sqrt(_row_dots(G)) + np.sqrt(_row_dots(S)))) ** 2
    return {
        MeasureKind.DISTANCE_SQ: (unit * np.maximum(np.sqrt(_row_dots(X)), x_scale)) ** 2,
        MeasureKind.FUNC_GAP: unit * np.maximum(np.abs(F), F_scale),
        MeasureKind.RESIDUAL_GRAD_SQ: np.where(has_s, residual, 0.0),
    }


def _row_dots(A: np.ndarray) -> np.ndarray:
    """x @ x for each row x of A, by the same BLAS dot as a single vector."""
    return (A[:, None, :] @ A[:, :, None]).reshape(len(A))


def _row_blocks(fn, *arrays) -> np.ndarray:
    """fn over blocks of rows, so that its temporaries stay near _BLOCK floats (or one row)."""
    n, dim = arrays[0].shape
    step = max(1, _BLOCK // max(dim, 1))
    return np.concatenate([fn(*(a[i : i + step] for a in arrays)) for i in range(0, n, step)])


def _ratios(values: np.ndarray, defined: np.ndarray, floors: np.ndarray) -> list[float | None]:
    a, b = values[:-1], values[1:]
    ok = defined[:-1] & defined[1:] & (a > floors[:-1])
    ratio = np.divide(b, a, out=np.zeros_like(a), where=ok)
    return [r if o else None for r, o in zip(ratio.tolist(), ok.tolist())]


def pgm_step(
    problem: CompositeProblem, gamma: float, x_k, grad_k=None
) -> tuple[np.ndarray, np.ndarray]:
    """One proximal gradient step; returns (x_{k+1}, s_{k+1}).

    gamma must be strictly positive (the extracted subgradient divides by it)
    and finite.
    """
    _check_step(gamma)
    x_k = np.asarray(x_k, dtype=float)
    grad_k = problem.f.grad(x_k) if grad_k is None else np.asarray(grad_k, dtype=float)
    x_next = problem.h.prox(gamma, x_k - gamma * grad_k)
    return x_next, _prox_subgradient(gamma, x_k, grad_k, x_next)


def _check_step(gamma: float) -> None:
    if not gamma > 0:
        raise ValueError("pgm_step requires gamma > 0")
    if math.isinf(gamma):
        raise ValueError("pgm_step requires a finite gamma")


def _prox_subgradient(gamma: float, x_k, grad_k, x_next) -> np.ndarray:
    """s_{k+1} = (x_k - x_{k+1}) / gamma - grad f(x_k), the subgradient the prox step certifies."""
    return (x_k - x_next) / gamma - grad_k


def _initial_subgradient(problem: CompositeProblem, x0, s0):
    if s0 is not None:
        s0 = np.asarray(s0, dtype=float)
        if not np.isfinite(s0).all():
            raise ValueError("s0 must be finite")
        if not problem.h.subgradient_membership(x0, s0, _MEMBERSHIP_TOL):
            raise ValueError("supplied s0 is not a subgradient of h at x0")
        return s0
    try:
        return problem.h.subgradient(x0)
    except NotImplementedError:
        return None


def _iterate(
    problem: CompositeProblem, x0, N: int, s0, step, method: str, outside_theory: bool = False
) -> IterateTrace:
    """The PGM loop: iterates 0..N and the N steps, filled into the trace's columns.

    Each step is (gamma, x_{k+1}, s_{k+1}) = step(x_k, grad f(x_k)). The first
    non-finite F(x_k) (a run that diverges, outside the theory) raises a
    ValueError naming k.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    if math.isinf(problem.h.value(x0)):
        raise ValueError("infeasible start: F(x0) = +inf")
    optimum = problem.try_optimum()
    s0 = _initial_subgradient(problem, x0, s0)
    X = np.empty((N + 1, *x0.shape))
    G, S, F = np.empty_like(X), np.empty_like(X), np.empty(N + 1)
    X[0] = x0
    S[0] = 0.0 if s0 is None else s0
    gammas: list[float] = []
    for k in range(N + 1):
        G[k] = problem.f.grad(X[k])
        F[k] = value = problem.value(X[k])
        if not math.isfinite(value):
            raise ValueError(f"F(x_k) is not finite at k = {k}: the iterates diverge")
        if k < N:
            gamma, X[k + 1], S[k + 1] = step(X[k], G[k])
            gammas.append(gamma)
    return IterateTrace(problem, X, G, S, F, s0 is not None, optimum, gammas, method, outside_theory)


def run(
    problem: CompositeProblem,
    gamma: float,
    x0,
    N: int,
    s0=None,
) -> IterateTrace:
    """Run N fixed-step PGM iterations from x0, producing N+1 records.

    x0 must be finite and feasible (F(x0) finite), and gamma finite. Record 0
    carries s0 (finite) when supplied, the canonical subgradient of h at x0
    otherwise. Steps with gamma > 2/L are allowed for exploration but mark
    the trace as outside the theory.
    """
    if N >= 0 and not gamma > 0:  # a negative N is reported first, by _iterate
        raise ValueError("run requires gamma > 0")
    if N >= 0 and math.isinf(gamma):
        raise ValueError("run requires a finite gamma")
    outside = gamma > 2.0 / problem.params.L * (1 + 1e-12)

    def step(x, grad):
        return gamma, *pgm_step(problem, gamma, x, grad)

    return _iterate(problem, x0, N, s0, step, "fixed", outside)


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
            gamma = 1.0 / problem.params.L
        elif denom <= 0.0:
            raise LineSearchError("objective is unbounded along the gradient ray", math.inf, x_k)
        else:
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

    def step(x, grad):
        gamma, x_next = exact_line_search_step(problem, x, grad)
        _check_step(gamma)  # NaN when x_k or its gradient is not finite
        return gamma, x_next, _prox_subgradient(gamma, x, grad, x_next)

    return _iterate(problem, x0, N, None, step, "els")


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
