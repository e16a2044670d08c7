"""Proximal gradient method with fixed step and with exact line search.

Both are one loop of pgm_step, at the step size a rule picks from x_k and
grad f(x_k). Every run produces a fully instrumented trace: iterates,
gradients, the subgradient extracted from each prox step via

    s_{k+1} = (x_k - x_{k+1}) / gamma - grad f(x_k),

the composite value, and the three performance measures (squared distance to
the optimum, function-value gap, squared residual gradient norm), NaN where
undefined (see IterateTrace). The residual measure at an iterate always uses
that iterate's own gradient and subgradient, which distinguishes it from the
gradient mapping (x_k - x_{k+1}) / gamma.

A trace's memory is O(dim) for any number of steps. Each step of the loop
does only what the next iterate needs: grad f(x_k), the step size, the prox
step written into the next row of a buffer of about _BLOCK floats, and s_{k+1}
formed in place in its row. Each full block of rows is then reduced at once
into per-iterate columns: the composite values F (one row-wise evaluation of
the problem per block, with its finiteness check), the measures and the
squared norms the noise floors need. A run that fits in one block keeps its
rows; a longer one rebuilds them, by running the loop again, the first time
they are read, and raises RuntimeError if the problem was changed in place
since the run.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .prox import Zero, _row_dot
from .rates import MeasureKind, _max_step
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

_EPS = float(np.finfo(float).eps)
_FLOOR_FACTOR = 256.0
_BLOCK = 1 << 16  # floats per row buffer of the PGM loop, and per temporary of its reductions


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
    performance measure, NaN where it is undefined (the distance and the gap
    need the optimum, the residual at iterate 0 a subgradient of h at x0);
    measure() and the records read NaN as None. The noise floors (`floors`) and the
    step ratios are computed for every iterate at once, on first use; a run
    whose floors are never read (a library line-search run) does not pay for
    them. `records` lists the rows as IterateRecords, built on each access.

    A trace holds O(dim) memory for any N: the measures, F and the squared
    row norms the floors need are per-iterate columns. Each step of the loop
    writes only the rows of X, G and S; the columns are filled once per block
    of rows, F by one row-wise evaluation of the problem (see _iterate). A
    run that fits in one block keeps its rows as X, G and S. A longer run
    keeps only its arguments, and the first read of X, G, S or `records` runs
    the loop again in one block; if the values of F it gets differ from the
    stored ones (the problem was changed in place since the run), the read
    raises RuntimeError.
    """

    def __init__(
        self,
        problem: CompositeProblem,
        F: np.ndarray,
        sums: np.ndarray,
        optimum: tuple[np.ndarray, float] | None,
        gammas: list[float],
        method: str,
        outside_theory: bool,
        rows: np.ndarray | None,
        rerun: Callable[[], IterateTrace] | None,
    ):
        self.problem, self.F = problem, F
        self.gammas, self.method, self.outside_theory = gammas, method, outside_theory
        self._optimum, self._sums, self._rerun = optimum, sums, rerun
        if rows is not None:
            self._rows = rows
        self.measures = {
            MeasureKind.DISTANCE_SQ: sums[0],
            MeasureKind.FUNC_GAP: F - optimum[1] if optimum else np.full(len(F), np.nan),
            MeasureKind.RESIDUAL_GRAD_SQ: sums[1],
        }

    @cached_property
    def _rows(self) -> np.ndarray:
        """The (3, N+1, dim) stack of X, G and S, rebuilt by running the loop again in one block."""
        trace = self._rerun()
        if trace.F.tobytes() != self.F.tobytes():
            raise RuntimeError("the problem changed since the run: its iterates can no longer be rebuilt")
        return trace._rows

    @property
    def X(self) -> np.ndarray:
        return self._rows[0]

    @property
    def G(self) -> np.ndarray:
        return self._rows[1]

    @property
    def S(self) -> np.ndarray:
        return self._rows[2]

    @cached_property
    def floors(self) -> dict[MeasureKind, np.ndarray]:
        """The noise floor of each measure at each iterate (see _noise_floors)."""
        return _noise_floors(*self._sums[1:], self.F, self._optimum)

    @cached_property
    def _ratios(self) -> dict[MeasureKind, list[float | None]]:
        return {m: _ratios(self.measures[m], self.floors[m]) for m in MeasureKind}

    @property
    def records(self) -> list[IterateRecord]:
        X, G, S = self._rows
        residual = self.measures[MeasureKind.RESIDUAL_GRAD_SQ]
        return [
            IterateRecord(X[k], G[k], None if math.isnan(residual[k]) else S[k], float(self.F[k]),
                          *(self.measure(m, k) for m in MeasureKind))
            for k in range(len(self))
        ]

    def __len__(self) -> int:
        return len(self.F)

    def measure(self, kind: MeasureKind, k: int) -> float | None:
        value = float(self.measures[kind][k])
        return None if math.isnan(value) else value

    def measure_floor(self, kind: MeasureKind, k: int) -> float:
        """Absolute double-precision noise floor of measure `kind` at iterate k (see _noise_floors)."""
        return float(self.floors[kind][k])

    def step_ratios(self, kind: MeasureKind) -> list[float | None]:
        """measure(k+1) / measure(k) per step.

        None where a measure is missing, zero, or below its noise floor (a
        ratio of rounding noise says nothing about contraction).
        """
        return list(self._ratios[kind])


def _noise_floors(rr, xx, gg, ss, F, optimum) -> dict[MeasureKind, np.ndarray]:
    """Absolute double-precision noise floor of each measure at each iterate.

    The function gap is a difference of comparable values, the distance a
    square of one, and the residual a square of the gradient/subgradient
    sum; each inherits a floor of a few hundred ulps of its inputs, whose
    squared norms per iterate are xx (the iterate), gg (the gradient of f)
    and ss (the subgradient of h). Below this level the stored value carries
    no information, a measured "gap" may even be negative, and no ratio or
    bound check is meaningful. The optimum's scale (||x*||, |F*|) enters
    when the optimum is known; the residual floor is 0 where the residual rr
    is undefined (NaN).
    """
    x_scale, F_scale = (float(np.linalg.norm(optimum[0])), abs(optimum[1])) if optimum else (0.0, 0.0)
    unit = _FLOOR_FACTOR * _EPS
    residual = (unit * (np.sqrt(gg) + np.sqrt(ss))) ** 2
    return {
        MeasureKind.DISTANCE_SQ: (unit * np.maximum(np.sqrt(xx), x_scale)) ** 2,
        MeasureKind.FUNC_GAP: unit * np.maximum(np.abs(F), F_scale),
        MeasureKind.RESIDUAL_GRAD_SQ: np.where(np.isnan(rr), 0.0, residual),
    }


def _row_sums(X, G, S, optimum, out) -> None:
    """Reduce a block of rows into `out`: the distance and residual measures, |x|^2, |g|^2 and |s|^2.

    Each row's values depend on that row alone, not on the rows that share
    its block.
    """
    out[0] = np.sum((X - optimum[0]) ** 2, axis=1) if optimum else np.nan
    residual = G + S
    out[1] = _row_dot(residual, residual)
    out[2], out[3], out[4] = _row_dot(X, X), _row_dot(G, G), _row_dot(S, S)


def _ratios(values: np.ndarray, floors: np.ndarray) -> list[float | None]:
    ok = values[:-1] > floors[:-1]  # False at a NaN; a measure is undefined throughout or at k = 0 only
    ratio = np.divide(values[1:], values[:-1], out=np.zeros(len(ok)), where=ok)
    return [r if o else None for r, o in zip(ratio.tolist(), ok.tolist())]


def pgm_step(
    problem: CompositeProblem, gamma: float, x_k, grad_k=None
) -> tuple[np.ndarray, np.ndarray]:
    """One proximal gradient step; returns (x_{k+1}, s_{k+1}).

    s_{k+1} = (x_k - x_{k+1}) / gamma - grad f(x_k) is the subgradient of h
    at x_{k+1} that the prox step certifies. x_k must be finite, and gamma
    strictly positive (the subgradient divides by it) and finite.
    """
    x_k = _finite(x_k, "x_k")
    if not gamma > 0:
        raise ValueError("pgm_step requires gamma > 0")
    if math.isinf(gamma):
        raise ValueError("pgm_step requires a finite gamma")
    grad_k = problem.f.grad(x_k) if grad_k is None else np.asarray(grad_k, dtype=float)
    x_next = problem.h.prox(gamma, x_k - gamma * grad_k)
    return x_next, _subgradient_into(np.empty(x_next.shape), x_k, x_next, gamma, grad_k)


def _subgradient_into(out: np.ndarray, x_k, x_next, gamma: float, grad_k) -> np.ndarray:
    """s_{k+1} = (x_k - x_{k+1}) / gamma - grad f(x_k), written into out with no temporary; returns out."""
    np.subtract(x_k, x_next, out=out)
    out /= gamma
    out -= grad_k
    return out


def _finite(x, name: str) -> np.ndarray:
    """x as a float array; ValueError naming it unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _feasible_start(problem: CompositeProblem, x, name: str) -> np.ndarray:
    """x as a finite point in the domain of h; ValueError naming it and the failed check otherwise."""
    x = problem.h._check_point(_finite(x, name))
    if problem.h._outside(x[None])[0]:
        raise ValueError(f"infeasible start: {name} is outside the domain of h")
    return x


def _objective(problem: CompositeProblem, X: np.ndarray, out: np.ndarray, k0: int) -> None:
    """Write F at the rows of X, iterates k0, k0 + 1, ..., into out; ValueError naming the first non-finite one.

    x_0 is finite and in the domain of h, so a non-finite F(x_0) is a value
    beyond the float range; a later one is a run that diverges.
    """
    out[:] = problem._values(X)
    bad = np.flatnonzero(~np.isfinite(out))
    if not bad.size:
        return
    k = k0 + int(bad[0])
    if k == 0:
        raise ValueError("F(x0) is not finite: the start is beyond the float range") from None
    raise ValueError(f"F(x_k) is not finite at k = {k}: the iterates diverge") from None


def _initial_subgradient(problem: CompositeProblem, x0, s0, step_size):
    if s0 is not None:
        s0 = _finite(s0, "s0")
        g = problem.f.grad(x0)
        tol = 4 * _EPS * (np.abs(x0) / step_size(x0, g) + np.abs(g) + np.abs(s0))
        if not problem.h.subgradient_membership(x0, s0, tol):
            raise ValueError("supplied s0 is not a subgradient of h at x0")
        return s0
    try:
        return problem.h.subgradient(x0)
    except NotImplementedError:
        return None


@np.errstate(over="ignore", invalid="ignore")
def _iterate(
    problem: CompositeProblem, x0, N: int, s0, step_size, method: str, outside_theory: bool, nb: int = 0
) -> IterateTrace:
    """The PGM loop: iterates 0..N and the N steps, reduced into the trace's columns.

    Row k of X, G and S is written to row k % nb of a buffer of nb rows (by
    default enough for about _BLOCK floats, at most N + 1). Per step, the loop
    computes grad f(x_k) into G's row and the step size gamma_k =
    step_size(x_k, grad f(x_k)) that the method's rule picks, writes
    prox_{gamma_k h}(x_k - gamma_k grad f(x_k)) into the next row of X, and
    forms s_{k+1} in place in S's row: pgm_step, with no temporary for s. Per
    block (each full one, and the last), before the next step overwrites it,
    one row-wise evaluation of the problem fills F (_objective), and
    _row_sums the other per-iterate columns. A run of more than one block
    keeps its arguments, to rebuild its rows in one block (nb = N + 1) when
    they are read.

    The first non-finite F(x_k) (a run that diverges, outside the theory)
    raises a ValueError naming k at the end of its block; the steps after it
    in that block run on inf and NaN, and an error one of them raises gives
    way to the divergence. A distance, gap or residual that is defined but
    leaves the float range raises a ValueError naming it and k, after the
    loop. Each error replaces numpy's warnings, which are silenced.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    x0 = _feasible_start(problem, x0, "x0")
    optimum = problem.try_optimum()
    s0_given = s0 is not None
    s0 = _initial_subgradient(problem, x0, s0, step_size)
    nb = nb or min(N + 1, max(1, _BLOCK // max(x0.size, 1)))
    buffer = np.empty((3, nb, *x0.shape))
    X, G, S = buffer
    F, sums = np.empty(N + 1), np.empty((5, N + 1))
    X[0] = x0
    S[0] = 0.0 if s0 is None else s0
    grad, prox = problem.f.grad, problem.h.prox
    gammas: list[float] = []
    for k in range(N + 1):
        r = k % nb
        x, g = X[r], G[r]
        g[:] = grad(x)
        if r == nb - 1 or k == N:
            _objective(problem, X[: r + 1], F[k - r : k + 1], k - r)
            _row_sums(X[: r + 1], G[: r + 1], S[: r + 1], optimum, sums[:, k - r : k + 1])
        if k < N:
            try:  # every catalog prox checks gamma
                gamma = step_size(x, g)
                x_next = prox(gamma, x - gamma * g)
            except (ValueError, LineSearchError):  # the exact step is NaN or unbounded past a divergence
                _objective(problem, X[: r + 1], F[k - r : k + 1], k - r)  # a divergence replaces the error
                raise
            n = (k + 1) % nb
            _subgradient_into(S[n], x, x_next, gamma, g)  # before X[n] = x_next: with nb = 1, X[n] is x
            X[n] = x_next
            del x_next  # kept to the next step, it would add a row to the loop's peak memory
            gammas.append(gamma)
    if s0 is None:
        sums[1, 0] = np.nan
    if nb == N + 1:
        rows, rerun = buffer, None
    else:
        rows = None
        s0_arg = s0.copy() if s0_given else None
        rerun = partial(_iterate, problem, x0.copy(), N, s0_arg, step_size, method, outside_theory, N + 1)
    trace = IterateTrace(problem, F, sums, optimum, gammas, method, outside_theory, rows, rerun)
    for kind, values in trace.measures.items():
        if optimum or kind is MeasureKind.RESIDUAL_GRAD_SQ:  # else undefined throughout
            start = int(kind is MeasureKind.RESIDUAL_GRAD_SQ and s0 is None)  # undefined at x0 without s0
            bad = np.flatnonzero(~np.isfinite(values[start:]))
            if bad.size:
                raise ValueError(f"{kind.value} is not finite at k = {bad[0] + start}: it leaves the float range")
    return trace


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
    otherwise. A supplied s0 must be a subgradient of h at the exact x0 up to
    the rounding of a prox step of step gamma that lands on x0: forming
    s0 = (x - x0)/gamma - g with x0 = prox(x - gamma g) takes seven roundings
    (gamma g, x - gamma g, two in a catalog prox, x - x0, / gamma, - g), each
    of eps/2 times at most S = |x0|/gamma + |g| + |s0| in units of s: 3.5 eps S
    to first order, so 4 eps S per coordinate, with g = grad f(x0). Steps
    with gamma > 2/L are allowed for exploration but mark the trace as
    outside the theory.
    """
    if N >= 0 and not gamma > 0:  # a negative N is reported first, by _iterate
        raise ValueError("run requires gamma > 0")
    if N >= 0 and math.isinf(gamma):
        raise ValueError("run requires a finite gamma")
    return _iterate(problem, x0, N, s0, lambda x, grad: gamma, "fixed", gamma > _max_step(problem.params.L))


def exact_line_search_step(problem: CompositeProblem, x_k) -> tuple[float, np.ndarray]:
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
    optimum) returns the step 1/L, which stays put. x_k must be finite and
    feasible. The new point is pgm_step's at the returned step size.
    """
    x_k = _feasible_start(problem, x_k, "x_k")
    with np.errstate(over="ignore", invalid="ignore"):
        F_k = problem.value(x_k)
    if not math.isfinite(F_k):
        raise ValueError("F(x_k) is not finite: the start is beyond the float range")
    g = problem.f.grad(x_k)
    gamma = _exact_step_size(problem, x_k, g)
    return gamma, problem.h.prox(gamma, x_k - gamma * g)


def _exact_step_size(problem: CompositeProblem, x_k: np.ndarray, g: np.ndarray) -> float:
    """The step size of exact_line_search_step at a feasible x_k with gradient g.

    Off h = 0 the sweep works on contiguous rows: row r of coef holds the c_r
    of phi_i on segment j of coordinate i at column j * dim + i, and each
    breakpoint t > 0 is named by the same flat index, so every gather is one
    take along the rows. Two reductions are sequential: the last piece sums
    its coordinates in coordinate order, and each earlier piece accumulates
    the jumps from the last breakpoint back. Both are cumulative sums along a
    row; a pairwise sum (`.sum(1)`) rounds differently, and the step sizes
    that TestFrozenTraces pins (TRACE_DIGESTS) would change.
    """
    if isinstance(problem.h, Zero):
        Hg = problem.f.hess_vec(g)
        denom = float(g @ Hg)
        gnorm = float(g @ g)
        if gnorm == 0.0:
            return 1.0 / problem.params.L
        if denom <= 0.0:
            raise LineSearchError("objective is unbounded along the gradient ray", math.inf, x_k)
        return gnorm / denom

    d, b = diagonal_form(problem.f)
    breaks, p0, p1, slope = problem.h.prox_path(x_k, g)
    # phi_i(t) = 0.5 d_i p_i^2 + (b_i + slope) p_i on each segment of coordinate i
    e = b + slope
    coef = np.array([0.5 * d * p1 * p1, (d * p0 + e) * p1, (0.5 * d * p0 + e) * p0]).reshape(3, -1)
    dim = len(x_k)
    reached = np.isfinite(breaks)
    at = reached.ravel().nonzero()[0]  # breakpoint j of coordinate i, for each one reached, as j * dim + i
    at = at[breaks.take(at).argsort()]
    m = len(at)
    # The last piece is summed directly from the segment each coordinate ends
    # on, so pinned coordinates add exact zeros to its c2 and c1 and an
    # unbounded last piece is detected exactly. Each earlier piece subtracts
    # the jumps at later breakpoints only: a jump at time T is of order
    # F_i / T^2, F_i / T and F_i in (c2, c1, c0), with F_i the coordinate's
    # share of F, so on a piece before T its rounding stays of order eps * F_i.
    last = coef.take(reached.sum(0) * dim + np.arange(dim), axis=1).cumsum(axis=1)[:, -1:]
    jumps = coef.take(at + dim, axis=1)
    jumps -= coef.take(at, axis=1)
    pieces = np.empty((3, m + 1))
    pieces[:, m] = 0.0
    jumps[:, ::-1].cumsum(axis=1, out=pieces[:, :m][:, ::-1])
    c2, c1, c0 = np.subtract(last, pieces, out=pieces)
    if c2[-1] == 0.0 and c1[-1] < 0.0:
        raise LineSearchError("objective is unbounded along the prox path", math.inf, x_k)
    # Best point of each piece: its clipped vertex, or its left end when it is
    # not strictly convex (its right end is the next piece's left end, and
    # that piece's best point is no worse). Piece j runs from ends[j] to ends[j + 1].
    ends = np.empty(m + 2)
    ends[0], ends[-1] = 0.0, np.inf
    breaks.take(at, out=ends[1:-1])
    t = np.divide(-c1, 2.0 * c2, out=ends[:-1].copy(), where=c2 > 0.0)
    np.minimum(np.maximum(t, ends[:-1], out=t), ends[1:], out=t)  # np.clip's ufunc, without its wrapper
    value = c2 * t
    value += c1
    value *= t
    value += c0
    return float(t[value.argmin()]) or 1.0 / problem.params.L


def run_exact_line_search(problem: CompositeProblem, x0, N: int) -> IterateTrace:
    """N exact-line-search steps: the PGM loop with the step size exact_line_search_step picks at each iterate.

    Each step minimizes F along the prox path, so F(x_{k+1}) is at most F after
    the fixed step 2/(L+mu) from the same x_k, where the function-value
    certificate holds in both regimes with rho^2 = ((L-mu)/(L+mu))^2. Hence
    F(x_{k+1}) - F_* <= ((L-mu)/(L+mu))^2 (F(x_k) - F_*), for every h.
    """
    return _iterate(problem, x0, N, None, partial(_exact_step_size, problem), "els", False)


def residual_line_search_step(f: SmoothFunction, x_k) -> tuple[float, np.ndarray]:
    """Line search along the gradient minimizing the next gradient norm (h = 0 only).

    Returns (alpha, x_{k+1}) with x_{k+1} = x_k + alpha * grad f(x_k); for the
    quadratic catalog alpha = -<g, Hg> / <Hg, Hg> is exact. The composite
    analogue has no available procedure and is out of scope. x_k must be finite.
    """
    x_k = _finite(x_k, "x_k")
    g = f.grad(x_k)
    Hg = f.hess_vec(g)
    denom = float(Hg @ Hg)
    if denom == 0.0:
        return 0.0, x_k.copy()
    alpha = -float(g @ Hg) / denom
    return alpha, x_k + alpha * g
