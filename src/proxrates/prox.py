"""Closed-form proximal operators for the nonsmooth catalog.

Each member h is a closed proper convex function with an analytical prox map
prox_{gamma*h}(x) = argmin_y gamma*h(y) + 0.5*||x - y||^2, an extended-real
value, a canonical subgradient at every feasible point, and its prox path: the
one statement of h's kinks, from which subdifferential membership is read.
Each member states its value once, over a stack of rows (_values); value(x)
is the one-row case, which the smooth oracles and CompositeProblem borrow. It
states its prox once, into a given row (_prox_into); prox(gamma, x) checks
its arguments and writes into a new row.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ProxFunction",
    "Zero",
    "NonnegIndicator",
    "BoxIndicator",
    "L1Norm",
    "LinearPlusNonnegIndicator",
]


def _check_dim(dim: int) -> int:
    """dim; ValueError unless it is at least 1, the one rule for the dimension of every catalog member."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return dim


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a @ b for each row a of A and row b of B (either may be one vector), by the BLAS dot of two vectors.

    Each row's result is bit-identical to the 1-d product of its two rows,
    whichever rows share the stack.
    """
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


class ProxFunction:
    """Base class; subclasses implement _values, _prox_into, subgradient and _prox_path.

    value, prox and membership are derived from them. A subclass whose domain
    is not all of R^dim also states it, in _outside.
    """

    dim: int

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of shape ({self.dim},), got {x.shape}")
        return x

    def _check_gamma(self, gamma: float) -> float:
        if not gamma > 0:
            raise ValueError(f"prox step size must be positive, got {gamma}")
        if math.isinf(gamma):
            raise ValueError(f"prox step size must be finite, got {gamma}")
        return float(gamma)

    def value(self, x) -> float:
        """The value at one point x, the one-row case of _values; h is +inf outside its domain."""
        return float(self._values(self._check_point(x)[None])[0])

    def _values(self, X: np.ndarray) -> np.ndarray:
        """h at each row of the (m, dim) stack X."""
        raise NotImplementedError

    def _indicator(self, X: np.ndarray) -> np.ndarray:
        """_values of the indicator of the domain: 0 on it, +inf off it."""
        return np.where(self._outside(X), math.inf, 0.0)

    def _outside(self, X: np.ndarray) -> np.ndarray:
        """True at each row of the (m, dim) stack X that lies outside the domain of h."""
        return np.zeros(len(X), dtype=bool)

    def prox(self, gamma: float, x) -> np.ndarray:
        """prox_{gamma h}(x), in a new array."""
        gamma = self._check_gamma(gamma)
        return self._prox_into(gamma, self._check_point(x), np.empty(self.dim))

    def _prox_into(self, gamma: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write prox_{gamma h}(y) into out, which may be y itself; returns out. gamma and y are checked."""
        raise NotImplementedError

    def subgradient(self, x) -> np.ndarray:
        """A canonical element of the subdifferential at a feasible x."""
        raise NotImplementedError

    def subgradient_membership(self, x, s, tol: float = 0.0) -> bool:
        """True iff s lies in the subdifferential at a feasible x, up to tol per coordinate of s.

        s is a subgradient at x exactly when prox_{t h}(x + t s) = x for small
        t > 0, so this reads the prox path along -s: on each coordinate's first
        segment after any breakpoints at t = 0, the path must start at x and
        move with speed at most tol. x is taken exactly.
        """
        x = self._require_feasible(x)
        with np.errstate(over="ignore"):  # a kink time past the float range is +inf
            breaks, p0, p1, _ = self._prox_path(x, -self._check_point(s))
        first = (breaks == 0).sum(axis=0), np.arange(self.dim)
        return bool(((p0[first] == x) & (np.abs(p1[first]) <= tol)).all())

    def prox_path(self, x, g) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Breakpoints and segment forms of t -> prox_{t h}(x - t g), t > 0, at a feasible x.

        h is separable, so each coordinate of the path is piecewise affine in
        t and h is linear in it on each segment. Returns (breaks, p0, p1, slope):
        breaks has shape (k, dim), nondecreasing down each column and +inf
        where a coordinate has fewer than k breakpoints; the other three have
        shape (k + 1, dim), and on segment j of coordinate i (from
        breaks[j-1, i], or 0, to breaks[j, i]) the path is
        p_i(t) = p0[j, i] + p1[j, i] * t and h_i(p_i) = slope[j, i] * p_i.
        """
        return self._prox_path(self._check_point(x), self._check_point(g))

    def _prox_path(self, x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """prox_path at x and g, which are checked."""
        raise NotImplementedError

    def _require_feasible(self, x) -> np.ndarray:
        x = self._check_point(x)
        if self._outside(x[None])[0]:
            raise ValueError("point is outside the domain of h")
        return x


def _hit(num, den, moving) -> np.ndarray:
    """num / den where `moving`, +inf elsewhere: the time a coordinate reaches a kink."""
    return np.divide(num, den, out=np.full(num.shape, np.inf), where=moving)


def _move_then_pin(x, v, end, pinned, slope=0.0):
    """prox_path of a coordinate that moves as x - t v until t = end, then stays at pinned.

    h_i = slope * p_i while it moves and 0 once it is pinned.
    """
    zero = np.zeros(x.shape)
    return end[None], np.array([x, pinned]), np.array([-v, zero]), np.array([slope + zero, zero])


class Zero(ProxFunction):
    """h = 0; prox is the identity."""

    def __init__(self, dim: int):
        self.dim = _check_dim(int(dim))

    _values = ProxFunction._indicator  # of R^dim

    def _prox_into(self, gamma, y, out):
        if out is not y:
            out[:] = y
        return out

    def subgradient(self, x):
        """0 at a feasible x: the canonical subgradient of h = 0 and of the orthant and box indicators."""
        self._require_feasible(x)
        return np.zeros(self.dim)

    def _prox_path(self, x, g):
        return np.empty((0, self.dim)), x[None], -g[None], np.zeros((1, self.dim))


class NonnegIndicator(ProxFunction):
    """Indicator of the nonnegative orthant; prox is the projection."""

    def __init__(self, dim: int):
        self.dim = _check_dim(int(dim))

    def _outside(self, X):
        return ~np.all(X >= 0, axis=-1)

    _values = ProxFunction._indicator

    def _prox_into(self, gamma, y, out):
        return np.maximum(y, 0.0, out=out)

    subgradient = Zero.subgradient

    def _prox_path(self, x, g):
        return _move_then_pin(x, g, _hit(x, g, g > 0), np.zeros(self.dim))


class BoxIndicator(ProxFunction):
    """Indicator of the box [lo, hi]; prox clips coordinatewise."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if not np.all((self.lo <= self.hi) & (self.lo < math.inf) & (self.hi > -math.inf)):
            raise ValueError("need lo <= hi coordinatewise, with lo < +inf, hi > -inf and neither NaN")
        self.dim = _check_dim(self.lo.shape[0])

    def _outside(self, X):
        return ~np.all((X >= self.lo) & (X <= self.hi), axis=-1)

    _values = ProxFunction._indicator

    def _prox_into(self, gamma, y, out):
        # the array np.clip, which returns the bound on a tie; np.clip into y itself keeps y at dim 1
        np.maximum(y, self.lo, out=out)
        return np.minimum(out, self.hi, out=out)

    subgradient = Zero.subgradient

    def _prox_path(self, x, g):
        bound = np.where(g > 0, self.lo, self.hi)
        end = _hit(x - bound, g, g != 0)  # +inf towards an infinite bound
        return _move_then_pin(x, g, end, np.where(np.isfinite(end), bound, x))


class L1Norm(ProxFunction):
    """h(x) = weight * ||x||_1; prox is coordinatewise soft-thresholding."""

    def __init__(self, weight: float, dim: int):
        if not 0 <= weight < math.inf:
            raise ValueError(f"l1 weight must be finite and nonnegative, got {weight}")
        self.weight = float(weight)
        self.dim = _check_dim(int(dim))

    def _values(self, X):
        return self.weight * np.sum(np.abs(X), axis=-1)

    def _prox_into(self, gamma, y, out):
        # sign(y) * max(|y| - gamma * weight, 0), with the sign read before out overwrites y
        sign = np.sign(y)
        np.abs(y, out=out)
        out -= gamma * self.weight
        np.maximum(out, 0.0, out=out)
        return np.multiply(sign, out, out=out)

    def subgradient(self, x):
        return self.weight * np.sign(self._check_point(x))

    def _prox_path(self, x, g):
        # A coordinate moves towards 0 with slope g + sign*w, rests at 0, and
        # leaves it on the other side with slope g - sign*w, where sign is
        # that of x (+1 at 0); each leg it never starts has breakpoint +inf.
        sign = np.where(x < 0, -1.0, 1.0)
        w = sign * self.weight
        toward, away = g + w, g - w
        breaks = np.array([_hit(x, toward, sign * toward > 0), _hit(x, away, sign * away > 0)])
        zero = np.zeros(self.dim)
        return breaks, np.array([x, zero, x]), np.array([-toward, zero, -away]), np.array([w, zero, -w])


class LinearPlusNonnegIndicator(ProxFunction):
    """h(x) = <c, x> on the nonnegative orthant, +inf outside."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        if self.c.ndim != 1 or not np.isfinite(self.c).all():
            raise ValueError("c must be a finite 1-d array")
        self.dim = _check_dim(self.c.shape[0])

    _outside = NonnegIndicator._outside

    def _values(self, X):
        return np.where(self._outside(X), math.inf, _row_dot(X, self.c))

    def _prox_into(self, gamma, y, out):
        np.subtract(y, gamma * self.c, out=out)
        return np.maximum(out, 0.0, out=out)

    def subgradient(self, x):
        self._require_feasible(x)
        return self.c.copy()

    def _prox_path(self, x, g):
        v = g + self.c
        return _move_then_pin(x, v, _hit(x, v, v > 0), np.zeros(self.dim), self.c)
