"""Smooth strongly convex quadratic oracles and composite problems.

The smooth catalog is quadratic on purpose: every worst-case instance of the
proximal gradient method in this library is quadratic (or quadratic plus a
simple nonsmooth term), and quadratics keep gradients, optima and attained
rates exact to machine precision. Each oracle, and CompositeProblem, states
its value once, over a stack of rows (_values); value(x) is the one-row case,
ProxFunction.value. Each oracle states its Hessian product once, into a given
row (_hess_into); the gradient H x + b (_grad_into, and grad(x), which checks
x and writes into a new row) and hess_vec derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .prox import (
    BoxIndicator,
    L1Norm,
    LinearPlusNonnegIndicator,
    NonnegIndicator,
    ProxFunction,
    Zero,
    _check_dim,
    _row_dot,
)
from .rates import ClassParams

__all__ = [
    "SmoothFunction",
    "ScaledSqNorm",
    "DiagonalQuadratic",
    "DenseQuadratic",
    "CompositeProblem",
    "random_instance",
    "random_composite",
    "check_interpolation",
    "relaxed_distance_condition",
]


class SmoothFunction:
    """Base for quadratic members of F_{mu,L}: value, gradient, Hessian product."""

    params: ClassParams
    dim: int

    value = ProxFunction.value
    _check_point = ProxFunction._check_point

    def _values(self, X: np.ndarray) -> np.ndarray:
        """f at each row of the (m, dim) stack X."""
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        """grad f(x), in a new array."""
        return self._grad_into(self._check_point(x), np.empty(self.dim))

    def _grad_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write grad f(x) = H x + b into out, which is not x; returns out. x is checked."""
        return np.add(self._hess_into(x, out), self.b, out=out)

    def value_grad(self, x) -> tuple[float, np.ndarray]:
        return self.value(x), self.grad(x)

    def hess_vec(self, v) -> np.ndarray:
        """Product of the (constant) Hessian with v."""
        return self._hess_into(self._check_point(v), np.empty(self.dim))

    def _hess_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write H v into out, which is not v; returns out. v is checked."""
        raise NotImplementedError

    def _set_class(self, lo: float, hi: float, params: ClassParams | None, message: str, slack: float = 0.0):
        """params, or [lo, hi] if None; ValueError(message) unless curvatures [lo, hi], to within slack, lie in it."""
        self.params = params if params is not None else ClassParams(lo, max(hi, 1e-300))
        if lo < self.params.mu - slack or hi > self.params.L + slack:
            raise ValueError(message)

    def _set_linear(self, b, of: str):
        """b, or zeros if None; ValueError unless it is a finite vector of the dimension of `of`."""
        self.b = np.zeros(self.dim) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (self.dim,):
            raise ValueError(f"b must match the dimension of {of}")
        if not np.isfinite(self.b).all():
            raise ValueError("b must be finite")


class ScaledSqNorm(SmoothFunction):
    """f(x) = (a/2)||x||^2 with curvature a inside the declared class [mu, L]."""

    def __init__(self, a: float, dim: int, params: ClassParams | None = None):
        self.a = float(a)
        self.dim = _check_dim(int(dim))
        self._set_class(self.a, self.a, params, "curvature must lie within the declared [mu, L]")

    def _values(self, X):
        return 0.5 * self.a * _row_dot(X, X)

    def _hess_into(self, v, out):
        return np.multiply(self.a, v, out=out)

    _grad_into = _hess_into  # b = 0


class DiagonalQuadratic(SmoothFunction):
    """f(x) = 0.5 * sum_i d_i x_i^2 + sum_i b_i x_i with d_i in [mu, L]."""

    def __init__(self, d, b=None, params: ClassParams | None = None):
        self.d = np.asarray(d, dtype=float)
        if self.d.ndim != 1 or self.d.size == 0:
            raise ValueError("d must be a nonempty 1-d array")
        if not np.isfinite(self.d).all():
            raise ValueError("d must be finite")
        self.dim = self.d.shape[0]
        self._set_linear(b, "d")
        self._set_class(float(self.d.min()), float(self.d.max()), params,
                        "diagonal entries must lie within the declared [mu, L]")

    def _values(self, X):
        return 0.5 * _row_dot(X * X, self.d) + _row_dot(X, self.b)

    def _hess_into(self, v, out):
        return np.multiply(self.d, v, out=out)


class DenseQuadratic(SmoothFunction):
    """f(x) = 0.5 x^T A x + b^T x for symmetric A with spectrum in [mu, L]."""

    def __init__(self, A, b=None, params: ClassParams | None = None):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.isfinite(self.A).all():
            raise ValueError("A must be finite")
        if not np.array_equal(self.A, self.A.T):  # else grad, A x + b, is not the derivative of value
            raise ValueError("A must be symmetric")
        self.dim = _check_dim(self.A.shape[0])
        self._set_linear(b, "A")
        eigs = np.linalg.eigvalsh(self.A)
        slack = 4 * self.dim * float(np.finfo(float).eps) * float(np.abs(eigs).max())  # eigvalsh's backward error
        self._set_class(float(eigs.min()), float(eigs.max()), params,
                        "spectrum must lie within the declared [mu, L]", slack)

    def _values(self, X):
        # A @ x row by row, each the matrix-vector product of one x (X @ A.T would round differently)
        return 0.5 * _row_dot(X, (self.A @ X[..., None])[..., 0]) + _row_dot(X, self.b)

    def _hess_into(self, v, out):
        return np.matmul(self.A, v, out=out)


def random_instance(params: ClassParams, dim: int, seed: int) -> DiagonalQuadratic:
    """Random diagonal quadratic in F_{mu,L}, deterministic under seed.

    The spectrum always contains both endpoints mu and L so the declared class
    constants are attained. With dim = 1 and mu < L both endpoints cannot fit;
    the instance falls back to curvature mu, so its effective smoothness is
    max(d) = mu rather than the declared L; at mu = 0 it takes curvature L.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    if dim == 1:
        d = np.array([params.mu if params.mu > 0 else params.L])
    else:
        interior = rng.uniform(params.mu, params.L, size=dim - 2)
        d = np.concatenate([[params.mu], [params.L], interior])
        rng.shuffle(d)
    b = rng.uniform(-1.0, 1.0, size=dim)
    return DiagonalQuadratic(d, b, params)


@dataclass
class CompositeProblem:
    """A smooth quadratic oracle f plus a proximable nonsmooth term h, in f's class."""

    f: SmoothFunction
    h: ProxFunction
    known_optimum: tuple[np.ndarray, float] | None = None
    # the solved optimum, or the message of the ValueError its solve raised
    _optimum: tuple[np.ndarray, float] | str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.f.dim != self.h.dim:
            raise ValueError("f and h dimensions disagree")
        if self.known_optimum is not None:
            x_star, F_star = np.asarray(self.known_optimum[0], dtype=float), float(self.known_optimum[1])
            if x_star.shape != (self.dim,) or not (np.isfinite(x_star).all() and math.isfinite(F_star)):
                raise ValueError(f"known_optimum must be a finite x* of shape ({self.dim},) and a finite F*")
            self.known_optimum = (x_star, F_star)

    @property
    def params(self) -> ClassParams:
        return self.f.params

    @property
    def dim(self) -> int:
        return self.f.dim

    value = ProxFunction.value
    _check_point = ProxFunction._check_point

    def _values(self, X: np.ndarray) -> np.ndarray:
        """F = f + h at each row of the (m, dim) stack X."""
        return self.f._values(X) + self.h._values(X)

    def optimum(self) -> tuple[np.ndarray, float]:
        """Minimizer and optimal value, solved in closed form for catalog members; a failed solve is not retried."""
        if self.known_optimum is not None:
            return self.known_optimum
        if self._optimum is None:
            try:
                x_star = _solve_catalog_optimum(self.f, self.h)
                with np.errstate(over="ignore", invalid="ignore"):
                    F_star = self.value(x_star)
                if not math.isfinite(F_star):
                    raise ValueError("the optimal value is beyond the float range")
            except ValueError as exc:
                self._optimum = str(exc)
            else:
                self._optimum = (x_star, F_star)
        if isinstance(self._optimum, str):
            raise ValueError(self._optimum)
        return self._optimum

    def try_optimum(self) -> tuple[np.ndarray, float] | None:
        """The optimum, or None when it has no closed form."""
        try:
            return self.optimum()
        except ValueError:
            return None

    def fixed_point_residual(self, gamma: float) -> float:
        """||x* - prox(h, gamma, x* - gamma grad f(x*))||, zero at a true optimum."""
        from .engine import _step_into

        x_star, _ = self.optimum()
        gamma = self.h._check_gamma(gamma)
        step = _step_into(self.h, gamma, x_star, self.f.grad(x_star), np.empty(len(x_star)), None)
        return float(np.linalg.norm(step - x_star))


def diagonal_form(f: SmoothFunction) -> tuple[np.ndarray, np.ndarray]:
    """(d, b) with f(x) = 0.5 * sum_i d_i x_i^2 + sum_i b_i x_i for a separable f.

    The closed forms that pair f with a nonzero h (optimum, exact line search)
    work coordinate by coordinate and need this form.
    """
    if isinstance(f, ScaledSqNorm):
        return np.full(f.dim, f.a), np.zeros(f.dim)
    if isinstance(f, DiagonalQuadratic):
        return f.d, f.b
    raise ValueError(
        f"f of type {type(f).__name__} is not separable; closed forms with h != 0 "
        "need ScaledSqNorm or DiagonalQuadratic"
    )


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # a flat coordinate's vertex is replaced
def _solve_catalog_optimum(f: SmoothFunction, h: ProxFunction) -> np.ndarray:
    """Minimizer of f + h in closed form, one array expression per catalog h.

    Coordinate i minimizes 0.5*d_i*x^2 + b_i*x + h_i(x). Every coordinate
    takes the vertex -b_i/d_i mapped through h; a zero-curvature (flat) one,
    read by index, then takes 0, or the box end its slope points to (with no
    slope, lo where it is finite, else hi where it is finite, else 0), and
    ValueError reports an objective unbounded below along it. ValueError also
    reports a minimizer beyond the float range.
    """
    if isinstance(f, DenseQuadratic) and isinstance(h, Zero):
        x = np.linalg.solve(f.A, -f.b)
    else:
        d, b = diagonal_form(f)
        flat = np.flatnonzero(~(d > 0))  # empty when every coordinate is curved
        if isinstance(h, LinearPlusNonnegIndicator):
            b = b + h.c
        slope = b[flat]
        target = 0.0
        if isinstance(h, Zero):
            if np.any(slope != 0):
                raise ValueError("unbounded below: zero curvature with a linear slope")
            x = -b / d
        elif isinstance(h, (NonnegIndicator, LinearPlusNonnegIndicator)):
            if not np.all(slope >= 0):
                raise ValueError("unbounded below on the orthant")
            # np.maximum returns its second argument on a tie, so -0.0 becomes 0.0
            x = np.maximum(-b / d, 0.0)
        elif isinstance(h, BoxIndicator):
            lo, hi = h.lo[flat], h.hi[flat]
            level = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
            target = np.where(slope < 0, hi, np.where(slope > 0, lo, level))
            if not np.isfinite(target).all():
                raise ValueError("unbounded below on the box")
            x = -b / d
            # a clip that keeps x on a tie with a bound, as the scalar np.clip does; the
            # array np.clip returns the bound, which flips the sign of x = -0.0 at lo = 0.0
            x = np.where(x < h.lo, h.lo, np.where(x > h.hi, h.hi, x))
        elif isinstance(h, L1Norm):
            w = h.weight
            if not np.all(np.abs(slope) <= w):
                raise ValueError("unbounded below with l1 term")
            x = np.copysign(np.maximum(np.abs(b) - w, 0.0), -b) / d
        else:
            raise ValueError(f"no closed-form optimum for h of type {type(h).__name__}")
        x[flat] = target
    if not np.isfinite(x).all():
        raise ValueError("the optimum is beyond the float range")
    return x


_H_KINDS = ("zero", "nonneg", "box", "l1")


def random_composite(
    params: ClassParams, dim: int, h_kind: str, seed: int
) -> tuple[CompositeProblem, np.ndarray]:
    """Random catalog problem plus a feasible starting point, seeded."""
    f = random_instance(params, dim, seed)
    rng = np.random.default_rng(seed + 0x9E3779B9)
    x0 = rng.uniform(-2.0, 2.0, size=dim)
    if h_kind == "zero":
        h: ProxFunction = Zero(dim)
    elif h_kind == "nonneg":
        h = NonnegIndicator(dim)
        x0 = np.abs(x0)
    elif h_kind == "box":
        lo = rng.uniform(-2.0, 0.0, size=dim)
        hi = lo + rng.uniform(0.5, 2.0, size=dim)
        h = BoxIndicator(lo, hi)
        x0 = np.clip(x0, lo, hi)
    elif h_kind == "l1":
        h = L1Norm(rng.uniform(0.2, 1.5), dim)
    else:
        raise ValueError(f"unknown h kind {h_kind!r}; expected one of {_H_KINDS}")
    return CompositeProblem(f, h), x0


def check_interpolation(
    f: SmoothFunction, params: ClassParams, points
) -> float:
    """Worst violation of the F_{mu,L} interpolation inequalities at the points.

    For every ordered pair (i, j) evaluates

        f_i - f_j - <g_j, x_i - x_j> - ||g_i - g_j||^2 / (2L)
            - mu / (2(1 - mu/L)) * ||x_i - x_j - (g_i - g_j)/L||^2

    and returns the minimum, which is >= 0 (up to rounding) exactly when the
    data extends to a member of F_{mu,L}. Requires mu < L; the degenerate
    class mu = L contains only pure quadratics and is handled by simulation.
    """
    mu, L = params.mu, params.L
    if mu >= L:
        raise ValueError("interpolation check requires mu < L")
    pts = [np.asarray(p, dtype=float) for p in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    vals = [f.value(p) for p in pts]
    grads = [f.grad(p) for p in pts]
    coeff = mu / (2.0 * (1.0 - mu / L))
    worst = math.inf
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            dx = pts[i] - pts[j]
            dg = grads[i] - grads[j]
            gap = (
                vals[i]
                - vals[j]
                - float(grads[j] @ dx)
                - float(dg @ dg) / (2.0 * L)
                - coeff * float(np.sum((dx - dg / L) ** 2))
            )
            worst = min(worst, gap)
    return worst


def relaxed_distance_condition(
    f: SmoothFunction, params: ClassParams, x, x_star
) -> float:
    """Slack of the weaker-than-strong-convexity condition between x and x*.

    <grad f(x*) - grad f(x), x* - x> >= ||grad f(x) - grad f(x*)||^2 / L
        + mu/(1 - mu/L) * ||x - x* - (grad f(x) - grad f(x*))/L||^2

    This is what the distance-contraction proof actually uses; it can hold for
    functions outside F_{mu,L}, e.g. rank-deficient quadratics measured
    against the projection of x onto their solution set.
    """
    mu, L = params.mu, params.L
    if mu >= L:
        raise ValueError("requires mu < L")
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    dg = f.grad(x) - f.grad(x_star)
    dx = x - x_star
    lhs = float(dg @ dx)
    rhs = float(dg @ dg) / L + mu / (1.0 - mu / L) * float(np.sum((dx - dg / L) ** 2))
    return lhs - rhs
