"""Shared independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
library code it checks: brute-force one-dimensional minimization for prox
maps, exact one-sided difference quotients for subdifferentials, a grid
search of the exact line search through the public prox and objective, a
scalar per-coordinate loop for the closed-form optimum, direct
recurrence iteration in floats for the constrained quadratic family, a
fixed-step PGM in exact rationals for one-dimensional quadratics with h = 0
or the orthant, the exact line search in exact rationals for diagonal
quadratics with h = 0, the exact line search's sweep on the layout it had
before its rows were contiguous, the rational step-1/L cells the constrained family
attains, the step-1/L and unbounded generators as written before they shared one
orthant builder, the long hand-expanded coefficient display for the distance
certificate, an exact Gram-basis evaluator of certificate expressions, the
sum-then-prune form arithmetic that the in-place sum replaced, an eager
gcd normalization of rational functions on plain coefficient lists, the
list-of-records PGM trace with noise floors and step ratios recomputed per call,
the certificate report with its residual always expanded, each catalog
value by its own formula at one point, and the bound table's converted cells
and `check_proposition` with each strong-convexity conversion written inline. The CLI's
documents are checked against the standard library's encoders:
`json.dumps(indent=2)` for JSON and `csv.DictWriter` for CSV.

It also holds the parametric certificate proof: `ParamRat`, exact arithmetic
in Q(mu, L, gamma) with denominators kept as named factors, in which each
certificate's residual expands to zero.
"""

import csv
import dataclasses
import io
import json
import math
from collections.abc import Callable
from fractions import Fraction

import numpy as np

from proxrates.certificate import (
    VERIFIERS,
    CertificateReport,
    Regime,
    SymbolicExpr,
    _CERTIFICATES,
    _coerce,
    _is_zero_scalar,
    _perturb,
    _residual,
    interp_convex,
    interp_smooth,
)
from proxrates.engine import IterateRecord, LineSearchError
from proxrates.prox import BoxIndicator, L1Norm, LinearPlusNonnegIndicator, NonnegIndicator, Zero
from proxrates.measures import MeasureTriple, _normalized_slack
from proxrates.rates import ClassParams, MeasureKind, _decay, _geometric_minus_one, bound_lookup
from proxrates.smooth import CompositeProblem, DenseQuadratic, DiagonalQuadratic, ScaledSqNorm, diagonal_form
from proxrates.worstcase import _MIXED_CELLS, DIST_TO_FUNCGAP, _is_normal, _square

_FLOOR = 256.0 * float(np.finfo(float).eps)


def json_document_oracle(doc) -> str:
    """The JSON text of a CLI document; a NaN or an infinity anywhere raises ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False)


def csv_rows_oracle(rows: list[dict]) -> str:
    """The CSV text of a CLI document's rows, with a header line; empty when there are no rows."""
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _rational_value_1d(h):
    """The defining extended-real value of a 1-d catalog member, in exact rationals.

    Returns a callable mapping Fraction -> Fraction, or None for +infinity.
    This re-states the definitions only; it shares nothing with the prox maps
    under test.
    """
    from proxrates import BoxIndicator, L1Norm, LinearPlusNonnegIndicator, NonnegIndicator, Zero

    if isinstance(h, Zero):
        return lambda y: Fraction(0)
    if isinstance(h, NonnegIndicator):
        return lambda y: Fraction(0) if y >= 0 else None
    if isinstance(h, BoxIndicator):
        lo, hi = float(h.lo[0]), float(h.hi[0])  # Fraction compares exactly with a float, inf included
        return lambda y: Fraction(0) if lo <= y <= hi else None
    if isinstance(h, L1Norm):
        w = Fraction(float(h.weight))
        return lambda y: w * abs(y)
    if isinstance(h, LinearPlusNonnegIndicator):
        c = Fraction(float(h.c[0]))
        return lambda y: c * y if y >= 0 else None
    raise TypeError(f"no rational value for {type(h).__name__}")


def subdifferential_1d(h, x: float) -> tuple:
    """[h'(x-), h'(x+)], the subdifferential of a 1-d catalog member at a feasible x.

    One-sided difference quotients of `_rational_value_1d` in exact rationals,
    over a step of 2^-1075: every kink of a catalog member is a float, so none
    lies strictly between x and x +- step, and h is affine there. A side that
    leaves the domain gives -inf (left) or +inf (right).
    """
    h_val, x_q, step = _rational_value_1d(h), Fraction(x), Fraction(1, 2**1075)
    left, at, right = h_val(x_q - step), h_val(x_q), h_val(x_q + step)
    return (-math.inf if left is None else (at - left) / step, math.inf if right is None else (right - at) / step)


def brute_force_prox_1d(h, gamma: float, x: float, lo: float, hi: float) -> float:
    """Minimize gamma*h(y) + (x-y)^2/2 on [lo, hi] by grid scan plus refinement.

    Runs in exact rational arithmetic so the bracket can be shrunk far below
    the square-root-of-epsilon wall that a floating-point value comparison
    would hit near a smooth minimum.
    """
    gamma_q, x_q = Fraction(gamma), Fraction(x)
    h_val = _rational_value_1d(h)

    def objective(y):
        hy = h_val(y)
        return None if hy is None else gamma_q * hy + (x_q - y) ** 2 / 2

    a, b = Fraction(lo), Fraction(hi)
    for _ in range(60):
        step = (b - a) / 40
        pts = [a + i * step for i in range(41)]
        finite = [(objective(p), i) for i, p in enumerate(pts) if objective(p) is not None]
        _, i = min(finite)
        a, b = pts[max(i - 1, 0)], pts[min(i + 1, 40)]
        if b - a < Fraction(1, 10**13):
            break
    return float((a + b) / 2)


def _kink_times(h, x, g):
    """Every t > 0 where a coordinate of prox_{t h}(x - t g) meets a kink of h.

    Re-derived from the definitions: the ray x - t g, shifted by the prox
    threshold t * (subgradient), crosses a bound or the origin.
    """
    from proxrates import BoxIndicator, L1Norm, LinearPlusNonnegIndicator, NonnegIndicator, Zero

    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(h, Zero):
            hits = [np.empty(0)]
        elif isinstance(h, NonnegIndicator):
            hits = [x / g]
        elif isinstance(h, BoxIndicator):
            hits = [(x - h.lo) / g, (x - h.hi) / g]
        elif isinstance(h, L1Norm):
            hits = [x / (g + h.weight), x / (g - h.weight)]
        elif isinstance(h, LinearPlusNonnegIndicator):
            hits = [x / (g + h.c)]
        else:
            raise TypeError(f"no kinks for {type(h).__name__}")
    t = np.concatenate(hits)
    return t[np.isfinite(t) & (t > 0)]


def line_search_phi(problem, x, t: float) -> float:
    """phi(t) = F(prox_{t h}(x - t grad f(x))) through the public prox and objective."""
    g = problem.f.grad(x)
    return problem.value(problem.h.prox(t, x - t * g))


def line_search_oracle(problem, x) -> float:
    """The smallest phi(t) found on a dense grid of t > 0 plus every kink.

    The grid is linear up to twice the last kink (at least 8/L) and geometric
    from 1e-6/L to 1e6/L, so an objective unbounded below shows up as a very
    negative value at the far end.
    """
    L = problem.params.L
    kinks = _kink_times(problem.h, x, problem.f.grad(x))
    reach = max(8.0 / L, 2.0 * float(kinks.max(initial=0.0)))
    grid = np.concatenate([np.linspace(0.0, reach, 301)[1:], np.geomspace(1e-6, 1e6, 121) / L, kinks])
    return min(line_search_phi(problem, x, t) for t in grid)


def exact_step_oracle(problem, x_k: np.ndarray, g: np.ndarray) -> float:
    """engine._exact_step_size as it was on a (k+1, dim, 3) stack of segment coefficients.

    The same sweep with the same floating-point operations in the same order,
    on the layout it replaced: masks and fancy indexing gather the
    breakpoints, the last piece is a sum along axis 0 of a (dim, 3) array and
    the jumps a cumsum along axis 0 of an (m, 3) one, both sequential. The
    library's step must be this float bit for bit, or raise the same
    LineSearchError.
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
    coef = np.stack([0.5 * d * p1 * p1, (d * p0 + e) * p1, (0.5 * d * p0 + e) * p0], -1)
    reached = np.isfinite(breaks)
    order = np.argsort(breaks[reached])
    ts = breaks[reached][order]
    jumps = (coef[1:] - coef[:-1])[reached][order]
    last = coef[reached.sum(0), np.arange(len(x_k))].sum(0)
    pieces = last - np.concatenate([np.cumsum(jumps[::-1], 0)[::-1], np.zeros((1, 3))])
    c2, c1, c0 = pieces.T
    if c2[-1] == 0.0 and c1[-1] < 0.0:
        raise LineSearchError("objective is unbounded along the prox path", math.inf, x_k)
    lo, hi = np.concatenate([[0.0], ts]), np.concatenate([ts, [np.inf]])
    t = np.clip(np.divide(-c1, 2.0 * c2, out=lo.copy(), where=c2 > 0.0), lo, hi)
    return float(t[np.argmin((c2 * t + c1) * t + c0)]) or 1.0 / problem.params.L


def _coordinate_optimum(d: float, b: float, h, i: int) -> float:
    """Minimize 0.5*d*x^2 + b*x + (coordinate i of h) with scalar arithmetic."""
    from proxrates import BoxIndicator, L1Norm, LinearPlusNonnegIndicator, NonnegIndicator, Zero

    if isinstance(h, Zero):
        if d > 0:
            return -b / d
        if b == 0:
            return 0.0
        raise ValueError("unbounded below: zero curvature with a linear slope")
    if isinstance(h, NonnegIndicator):
        if d > 0:
            return max(0.0, -b / d)
        if b >= 0:
            return 0.0
        raise ValueError("unbounded below on the orthant")
    if isinstance(h, BoxIndicator):
        lo, hi = h.lo[i], h.hi[i]
        if d > 0:
            return float(np.clip(-b / d, lo, hi))
        if b == 0:  # constant along the coordinate: lo where finite, else hi where finite, else 0
            target = lo if math.isfinite(lo) else hi if math.isfinite(hi) else 0.0
        else:
            target = lo if b > 0 else hi
        if not math.isfinite(target):
            raise ValueError("unbounded below on the box")
        return float(target)
    if isinstance(h, L1Norm):
        w = h.weight
        if d > 0:
            return math.copysign(max(abs(b) - w, 0.0), -b) / d
        if abs(b) <= w:
            return 0.0
        raise ValueError("unbounded below with l1 term")
    if isinstance(h, LinearPlusNonnegIndicator):
        slope = b + h.c[i]
        if d > 0:
            return max(0.0, -slope / d)
        if slope >= 0:
            return 0.0
        raise ValueError("unbounded below on the orthant")
    raise ValueError(f"no closed-form optimum for h of type {type(h).__name__}")


def optimum_oracle(problem) -> np.ndarray:
    """Minimizer of a separable catalog problem, solved one coordinate at a time.

    Raises ValueError, saying "unbounded", at the first coordinate along
    which the objective is unbounded below.
    """
    from proxrates.smooth import diagonal_form

    d, b = diagonal_form(problem.f)
    return np.array([_coordinate_optimum(d[i], b[i], problem.h, i) for i in range(problem.dim)])


def iterate_recurrence(mu: float, L: float, c: float, x0: float, N: int) -> list[float]:
    """x_{k+1} = (1 - mu/L) x_k - c/L iterated directly (independent of closed forms)."""
    xs = [x0]
    for _ in range(N):
        xs.append((1.0 - mu / L) * xs[-1] - c / L)
    return xs


def pgm_exact(d: Fraction, b: Fraction, x0: Fraction, gamma: Fraction, N: int, orthant: bool):
    """Fixed-step PGM on f(x) = (d/2) x^2 + b x in one dimension, in exact rationals.

    h is the indicator of x >= 0 when `orthant`, else 0. Returns the iterates
    x_0..x_N and the prox subgradients s_0..s_N (s_0 = 0) of
    y_k = x_k - gamma (d x_k + b), x_{k+1} = max(0, y_k) (or y_k) and
    s_{k+1} = (y_k - x_{k+1}) / gamma. Shares no code with `engine`.
    """
    xs, ss = [x0], [Fraction(0)]
    for _ in range(N):
        y = xs[-1] - gamma * (d * xs[-1] + b)
        xs.append(max(Fraction(0), y) if orthant else y)
        ss.append((y - xs[-1]) / gamma)
    return xs, ss


def els_exact(d: list, x0: list, N: int) -> list[list[Fraction]]:
    """Exact line search with h = 0 on f(x) = (1/2) sum_i d_i x_i^2, in exact rationals.

    Step k moves along -g_k = -d * x_k by the exact minimizer
    t_k = <g_k, g_k> / <g_k, H g_k> of f on that ray. Returns the iterates
    x_0..x_N as lists. Shares no code with `engine`.
    """
    xs = [list(x0)]
    for _ in range(N):
        g = [di * xi for di, xi in zip(d, xs[-1])]
        t = sum(gi * gi for gi in g) / sum(di * gi * gi for di, gi in zip(d, g))
        xs.append([xi - t * gi for xi, gi in zip(xs[-1], g)])
    return xs


def mixed_slope_exact(final: MeasureKind, mu: Fraction, L: Fraction, x0: Fraction, N: int) -> Fraction:
    """The tuned slope of the step-1/L mixed instance: mu x0 / (q^(-m) - 1), q = 1 - mu/L.

    m = 2N maximizes the final function gap; m = N drives x_N onto the constraint.
    """
    m = 2 * N if final is MeasureKind.FUNC_GAP else N
    return mu * x0 / ((1 - mu / L) ** -m - 1)


def step_1_over_L_cell_exact(init: MeasureKind, final: MeasureKind, mu: Fraction, L: Fraction, k: int) -> Fraction:
    """The rational value of a conjectured-tight step-1/L cell, rho = 1 - mu/L."""
    rho = 1 - mu / L
    return {
        (MeasureKind.DISTANCE_SQ, MeasureKind.FUNC_GAP): (mu / 2) / (rho ** (-2 * k) - 1),
        (MeasureKind.DISTANCE_SQ, MeasureKind.RESIDUAL_GRAD_SQ): mu**2 / (rho**-k - 1) ** 2,
        (MeasureKind.FUNC_GAP, MeasureKind.RESIDUAL_GRAD_SQ): 2 * mu / (rho ** (-2 * k) - 1),
    }[(init, final)]


@dataclasses.dataclass
class ReferenceSpec:
    """The fields of a worst-case spec, as the padded generators below fill them."""

    problem: CompositeProblem
    x0: np.ndarray
    s0: np.ndarray | None
    N: int
    gamma: float | None
    predicted: dict
    closed_form_iterates: Callable[[int], np.ndarray] | None = None
    note: str = ""


def _padded(value: float, dim: int) -> np.ndarray:
    """The vector of R^dim with first coordinate `value` and zeros elsewhere."""
    out = np.zeros(dim)
    out[0] = value
    return out


def _check_sizes(N: int, dim: int) -> None:
    if N < 0:
        raise ValueError("N must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")


def reference_mixed_measure_instance(
    params: ClassParams, N: int, x0: float, target, dim: int = 1
) -> ReferenceSpec:
    """mixed_measure_instance as it was written before it shared the orthant builder, with its dim padding."""
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
    _check_sizes(N, dim)

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

    def closed_form(k: int) -> np.ndarray:
        return _padded((c * q**k - c + kappa * L * q**k * x0) / (kappa * L), dim)

    f = DiagonalQuadratic(np.full(dim, mu), _padded(c, dim), params)
    problem = CompositeProblem(f, NonnegIndicator(dim), known_optimum=(np.zeros(dim), 0.0))
    note = "padded to dim > 1; measures unchanged" if dim > 1 else ""
    return ReferenceSpec(
        problem, _padded(x0, dim), np.zeros(dim), N, gamma, {target: predicted}, closed_form, note
    )


def reference_unbounded_family(
    c: float, dim: int = 1, x0: float = 1.0, N: int = 5, L: float = 1.0
) -> ReferenceSpec:
    """unbounded_family as it was written before it shared the orthant builder, with its dim padding."""
    params = ClassParams(0.0, L)
    if not c > 0:
        raise ValueError("c must be positive")
    if not x0 >= 0:
        raise ValueError("x0 must be feasible (x0 >= 0)")
    _check_sizes(N, dim)
    predicted = {}
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
    f = DiagonalQuadratic(np.zeros(dim), _padded(c, dim), params)
    problem = CompositeProblem(f, NonnegIndicator(dim), known_optimum=(np.zeros(dim), 0.0))

    def closed_form(k: int) -> np.ndarray:
        return _padded(max(0.0, x0 - k * c / L), dim)

    return ReferenceSpec(
        problem, _padded(x0, dim), np.zeros(dim), N, 1.0 / L, predicted, closed_form,
        note="witness ratios scale like inverse powers of c",
    )


def gram_value(expr: SymbolicExpr, vectors: dict, values: dict) -> Fraction:
    """The exact value in Q of expr at exact vectors and function values.

    `vectors` maps basis names to sequences of Fractions, and `values` maps
    each function symbol of expr to a Fraction. Shares no code with
    `certificate.evaluate_expr`, which works in floats, nor with the form's
    arithmetic.
    """
    total = sum((Fraction(c) * values[name] for name, c in expr.lin.items()), Fraction(0))
    for (a, b), c in expr.gram.items():
        total += Fraction(c) * sum(u * v for u, v in zip(vectors[a], vectors[b], strict=True))
    return total


def _reference_form(cls, items):
    """The form summing every (key, coefficient) item first and pruning the zero coefficients after."""
    terms = {}
    for k, v in items:
        terms[k] = terms[k] + v if k in terms else v
    out = cls.__new__(cls)
    out.terms = {k: v for k, v in terms.items() if not _is_zero_scalar(v)}
    return out


def reference_add(a, b):
    return _reference_form(type(a), [*a.terms.items(), *b.terms.items()])


def reference_neg(a):
    return _reference_form(type(a), ((k, -v) for k, v in a.terms.items()))


def reference_sub(a, b):
    return reference_add(a, reference_neg(b))


def reference_scale(a, v):
    return _reference_form(type(a), ((k, v * c) for k, c in a.terms.items()))


def reference_inner(u, v) -> SymbolicExpr:
    pairs = (((a, b) if a <= b else (b, a), ca * cb) for a, ca in u.terms.items() for b, cb in v.terms.items())
    return _reference_form(SymbolicExpr, pairs)


# The same arithmetic as the `certificate._Form` methods it replaced, to patch onto the class
# (`inner` builds through `_of`, and `a - b` is `a + (-b)`).
REFERENCE_FORM_METHODS = {
    "_of": classmethod(_reference_form),
    "__add__": reference_add,
    "__neg__": reference_neg,
    "scale": reference_scale,
    "__rmul__": reference_scale,
}


# The three proven converted cells of the global table, each with its conversion written inline, as
# the table stated them before `rates.CONVERSIONS`.
_D, _G, _R = MeasureKind.DISTANCE_SQ, MeasureKind.FUNC_GAP, MeasureKind.RESIDUAL_GRAD_SQ
REFERENCE_CONVERTED_CELLS = {
    (_G, _D): lambda mu, L, g, k: 2.0 / mu * _decay(mu, L, g, k),
    (_R, _D): lambda mu, L, g, k: 1.0 / mu**2 * _decay(mu, L, g, k),
    (_R, _G): lambda mu, L, g, k: 1.0 / (2.0 * mu) * _decay(mu, L, g, k),
}


def reference_check_proposition(triple, params, floors=None) -> list[tuple[str, float]]:
    """`measures.check_proposition` with each conversion and its floor written out by hand, as it was
    before it read `rates.CONVERSIONS`."""
    params.require_strongly_convex()
    mu = params.mu
    f = floors if floors is not None else MeasureTriple(0.0, 0.0, 0.0)
    return [
        (
            "dist_le_residual_over_musq",
            _normalized_slack(
                triple.dist_sq,
                triple.residual_grad_sq / mu**2,
                f.dist_sq + f.residual_grad_sq / mu**2,
            ),
        ),
        (
            "gap_le_residual_over_2mu",
            _normalized_slack(
                triple.func_gap,
                triple.residual_grad_sq / (2 * mu),
                abs(f.func_gap) + f.residual_grad_sq / (2 * mu),
            ),
        ),
        (
            "dist_le_2gap_over_mu",
            _normalized_slack(
                triple.dist_sq,
                2 * triple.func_gap / mu,
                f.dist_sq + 2 * abs(f.func_gap) / mu,
            ),
        ),
    ]


def distance_weighted_sum(mu, L, gamma, regime: Regime) -> SymbolicExpr:
    """The distance certificate's weighted sum of inequalities, no target subtracted."""
    mu, L = Fraction(mu), Fraction(L)
    rho = 1 - gamma * mu if regime is Regime.SMALL_STEP else gamma * L - 1
    lam_f = 2 * gamma * rho
    lam_h = 2 * gamma
    return (
        interp_smooth("*", "k", mu, L, gamma).scale(lam_f)
        + interp_smooth("k", "*", mu, L, gamma).scale(lam_f)
        + interp_convex("*", "k+1", gamma).scale(lam_h)
        + interp_convex("k+1", "*", gamma).scale(lam_h)
    )


def reference_display(mu, L, g) -> SymbolicExpr:
    """The long hand-expanded form of the small-step distance weighted sum.

    Transcribed coefficient by coefficient from the reference hand expansion, which
    is stated for free x_k and x_*; the optimal point is the origin of the
    canonical basis, so the x_* columns fold into the x = x_k - x_* entries.
    The internal consistency of that folding (each x_* coefficient is the
    exact negative of its x_k partner, and the x_k/x_* quadratic block is a
    perfect square in x_k - x_*) is asserted here before folding.
    """
    mu, L = Fraction(mu), Fraction(L)
    pref = 2 / (L - mu)

    gk_gk = g - g**2 * mu
    gk_gs = g**2 * mu + g**2 * L - 2 * g
    gk_sk1 = g**2 * L - g**2 * mu
    gk_xk = g**2 * mu**2 + g**2 * mu * L - g * L - g * mu
    gk_xs = -(g**2) * mu**2 - g**2 * mu * L + g * L + g * mu
    gs_gs = g - g**2 * mu
    gs_sk1 = g**2 * L - g**2 * mu
    gs_xk = 2 * g * mu - g**2 * mu**2 - g**2 * mu * L
    gs_xs = g**2 * mu**2 + g**2 * mu * L - 2 * g * mu
    sk1_sk1 = g**2 * L - g**2 * mu
    sk1_xk = g * mu - g * L
    sk1_xs = g * L - g * mu
    xk_xk = g * mu * L - g**2 * mu**2 * L
    xk_xs = 2 * g**2 * mu**2 * L - 2 * g * mu * L
    xs_xs = g * mu * L - g**2 * mu**2 * L

    # translation-invariance structure of the printed display
    assert gk_xs == -gk_xk
    assert gs_xs == -gs_xk
    assert sk1_xs == -sk1_xk
    assert xk_xs == -2 * xk_xk
    assert xs_xs == xk_xk

    gram = {
        ("gk", "gk"): gk_gk,
        ("gk", "gs"): gk_gs,
        ("gk", "sk1"): gk_sk1,
        ("gk", "x"): gk_xk,
        ("gs", "gs"): gs_gs,
        ("gs", "sk1"): gs_sk1,
        ("gs", "x"): gs_xk,
        ("sk1", "sk1"): sk1_sk1,
        ("sk1", "x"): sk1_xk,
        ("x", "x"): xk_xk,
    }
    return SymbolicExpr(gram={k: pref * v for k, v in gram.items()})


def _strip(coeffs) -> list:
    c = [Fraction(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return c


def _divmod_coeffs(a: list, b: list) -> tuple[list, list]:
    """Schoolbook division of nonzero coefficient lists, lowest degree first."""
    rem, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        quo[k] = rem[-1] / b[-1]
        for i, v in enumerate(b):
            rem[k + i] -= quo[k] * v
        rem = _strip(rem)
    return _strip(quo), rem


def ratfunc_oracle(num, den) -> tuple[tuple, tuple]:
    """Canonical (numerator, denominator) coefficients of num/den, computed eagerly.

    num and den are `Poly` or coefficient sequences, lowest degree first. The
    Euclidean gcd always runs and the denominator is always rescaled to be
    monic, whatever the degrees or the leading coefficient; zero is (), (1,).
    """
    num, den = _strip(getattr(num, "c", num)), _strip(getattr(den, "c", den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (Fraction(1),)
    a, b = num, den
    while b:
        a, b = b, _divmod_coeffs(a, b)[1]
    g = [v / a[-1] for v in a]
    num, den = _divmod_coeffs(num, g)[0], _divmod_coeffs(den, g)[0]
    return tuple(v / den[-1] for v in num), tuple(v / den[-1] for v in den)


def value_oracle(fn, x) -> float:
    """The value of a catalog f, h or composite problem at the one point x, by its per-point formula.

    The library states each value once, over a stack of rows; at every row it
    must be bit-identical to this.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(fn, CompositeProblem):
        return value_oracle(fn.f, x) + value_oracle(fn.h, x)
    if isinstance(fn, ScaledSqNorm):
        return 0.5 * fn.a * float(x @ x)
    if isinstance(fn, DiagonalQuadratic):
        return 0.5 * float(fn.d @ (x * x)) + float(fn.b @ x)
    if isinstance(fn, DenseQuadratic):
        return 0.5 * float(x @ (fn.A @ x)) + float(fn.b @ x)
    if isinstance(fn, Zero):
        return 0.0
    if isinstance(fn, NonnegIndicator):
        return 0.0 if np.all(x >= 0) else math.inf
    if isinstance(fn, BoxIndicator):
        return 0.0 if np.all((x >= fn.lo) & (x <= fn.hi)) else math.inf
    if isinstance(fn, L1Norm):
        return fn.weight * float(np.sum(np.abs(x)))
    if isinstance(fn, LinearPlusNonnegIndicator):
        return float(fn.c @ x) if np.all(x >= 0) else math.inf
    raise TypeError(f"no value oracle for {type(fn).__name__}")


def _oracle_record(problem, x, s, optimum) -> IterateRecord:
    grad = problem.f.grad(x)
    F_val = value_oracle(problem, x)
    dist_sq = func_gap = residual = None
    if optimum is not None:
        x_star, F_star = optimum
        dist_sq = float(np.sum((x - x_star) ** 2))
        func_gap = F_val - F_star
    if s is not None:
        r = grad + s
        residual = float(r @ r)
    return IterateRecord(x, grad, s, F_val, dist_sq, func_gap, residual)


class _OracleTrace:
    def __init__(self, problem, records, gammas):
        self.problem, self.records, self.gammas = problem, records, gammas

    def measure_floor(self, kind, k: int) -> float:
        rec = self.records[k]
        opt = self.problem.try_optimum()
        x_scale, F_scale = (float(np.linalg.norm(opt[0])), abs(opt[1])) if opt is not None else (0.0, 0.0)
        if kind is MeasureKind.FUNC_GAP:
            return _FLOOR * max(abs(rec.F_val), F_scale)
        if kind is MeasureKind.DISTANCE_SQ:
            return (_FLOOR * max(float(np.linalg.norm(rec.x)), x_scale)) ** 2
        if rec.s is None:
            return 0.0
        return (_FLOOR * (float(np.linalg.norm(rec.grad_f)) + float(np.linalg.norm(rec.s)))) ** 2

    def step_ratios(self, kind) -> list:
        out = []
        for k, (prev, nxt) in enumerate(zip(self.records, self.records[1:])):
            a, b = prev.measure(kind), nxt.measure(kind)
            defined = a is not None and b is not None and a > self.measure_floor(kind, k)
            out.append(b / a if defined else None)
        return out


def trace_oracle(problem, x0, N: int, step, s0=None) -> _OracleTrace:
    """A PGM trace as one IterateRecord per iterate, each measure computed on its own.

    step(x_k, grad f(x_k)) returns (gamma, x_{k+1}, s_{k+1}). Record 0 carries
    s0, or the canonical subgradient of h at x0 when h has one. The floors and
    step ratios are recomputed from the records on every call, with the norms
    of each stored vector taken one at a time.
    """
    optimum = problem.try_optimum()
    x0 = np.asarray(x0, dtype=float)
    if s0 is None:
        try:
            s0 = problem.h.subgradient(x0)
        except NotImplementedError:
            pass
    records = [_oracle_record(problem, x0, s0, optimum)]
    gammas = []
    for _ in range(N):
        gamma, x, s = step(records[-1].x, records[-1].grad_f)
        records.append(_oracle_record(problem, x, s, optimum))
        gammas.append(gamma)
    return _OracleTrace(problem, records, gammas)


def trace_rows_oracle(oracle: _OracleTrace, rate, outside_theory: bool, tol: float):
    """The `simulate` rows and rho^2-violation flag of an oracle trace, one record at a time."""
    kinds = list(MeasureKind)
    rows, violated = [], False
    initial = {m: oracle.records[0].measure(m) for m in kinds}
    ratios = {m: [None, *oracle.step_ratios(m)] for m in kinds}
    for k, rec in enumerate(oracle.records):
        row = {"k": k, "F": rec.F_val}
        for m in kinds:
            row[m.value] = rec.measure(m)
            row[f"envelope_{m.value}"] = rate.geometric(k) * initial[m] if initial[m] is not None else None
        for m in kinds:
            row[f"ratio_{m.value}"] = ratios[m][k]
            prev = oracle.records[k - 1].measure(m) if k > 0 else None
            if prev is not None and row[m.value] is not None and not outside_theory:
                violated |= row[m.value] > rate.rho_squared * prev * (1 + tol) + oracle.measure_floor(m, k)
        rows.append(row)
    return rows, violated


# ------------------------------------------------------------------------
# the parametric certificate proof: exact arithmetic in Q(mu, L, gamma)
#
# A polynomial in (mu, L, gamma) is a dict {(i, j, k): int} for the monomial
# mu^i L^j gamma^k, zero coefficients dropped. An element of the field is
# num / (d * mu^a L^b gamma^c * prod_f f^e_f) with d a positive integer and f
# running over the named factors below. Division is allowed only by such a
# product, which is stripped off the divisor's numerator by exact division;
# no multivariate gcd is needed, and an element is zero exactly when its
# numerator is.


def _poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            m = (a1 + a2, b1 + b2, c1 + c2)
            out[m] = out.get(m, 0) + v1 * v2
    return {m: v for m, v in out.items() if v}


def _poly_div_exact(p: dict, d: dict):
    """p / d when d divides p, else None; d's leading coefficient is +-1.

    Division by the lexicographically leading term of d: if d divides p, the
    leading term of every remainder is a multiple of d's, so the first one
    that is not proves d does not divide p. A leading coefficient of +-1
    keeps the quotient's coefficients integers.
    """
    lead = max(d)
    rem, quo = dict(p), {}
    while rem:
        m = max(rem)
        e = (m[0] - lead[0], m[1] - lead[1], m[2] - lead[2])
        if min(e) < 0:
            return None
        quo[e] = rem[m] * d[lead]
        rem = _poly_add(rem, _poly_mul({e: quo[e]}, d), -1)
    return quo


# The named denominator factors, expanded by hand from their definitions.
PROOF_FACTORS = {
    "L - mu": {(0, 1, 0): 1, (1, 0, 0): -1},
    "2 - gamma*mu": {(0, 0, 0): 2, (1, 0, 1): -1},
    "2 - gamma*L": {(0, 0, 0): 2, (0, 1, 1): -1},
    # -(gamma^2 L^2 mu + 2 L (gamma mu - 2) + mu (gamma mu - 2)^2)
    "alpha_small": {(1, 2, 2): -1, (1, 1, 1): -2, (0, 1, 0): 4, (3, 0, 2): -1, (2, 0, 1): 4, (1, 0, 0): -4},
    # -2 L^2 - 2 mu^2 + 2 L mu + gamma L^3 + gamma L mu^2
    "alpha_large": {(0, 2, 0): -2, (2, 0, 0): -2, (1, 1, 0): 2, (0, 3, 1): 1, (2, 1, 1): 1},
}
_FACTORS = tuple(PROOF_FACTORS.values())
_NO_FACTORS = (0,) * len(_FACTORS)
assert all(f[max(f)] in (1, -1) for f in _FACTORS)


def _strip_factors(num: dict, limits) -> tuple[dict, tuple]:
    """Divide num by each named factor as often as it divides, at most limits[i] times."""
    counts = []
    for f, limit in zip(_FACTORS, limits):
        n = 0
        while n < limit:
            q = _poly_div_exact(num, f)
            if q is None:
                break
            num, n = q, n + 1
        counts.append(n)
    return num, tuple(counts)


def _monomial_content(num: dict) -> tuple:
    return tuple(min(m[i] for m in num) for i in range(3))


def _shift(num: dict, mono, sign: int = 1) -> dict:
    return {tuple(a + sign * b for a, b in zip(m, mono)): v for m, v in num.items()}


class ParamRat:
    """An element of Q(mu, L, gamma): num / (d * mu^a L^b gamma^c * prod of named factors^e).

    Every instance is reduced: no integer above 1, no power of mu, L or gamma
    and no named factor divides both the numerator and the denominator. Zero
    is {} / 1.
    """

    __slots__ = ("num", "d", "mono", "fac")

    def __init__(self, num: dict, d: int = 1, mono=(0, 0, 0), fac=_NO_FACTORS):
        if not num:
            d, mono, fac = 1, (0, 0, 0), _NO_FACTORS
        else:
            g = math.gcd(d, *num.values())
            if g > 1:
                num, d = {m: v // g for m, v in num.items()}, d // g
            low = tuple(min(a, b) for a, b in zip(_monomial_content(num), mono))
            if any(low):
                num, mono = _shift(num, low, -1), tuple(a - b for a, b in zip(mono, low))
            if any(fac):
                num, cancelled = _strip_factors(num, fac)
                fac = tuple(a - b for a, b in zip(fac, cancelled))
        self.num, self.d, self.mono, self.fac = num, d, mono, fac

    @classmethod
    def lift(cls, v) -> "ParamRat":
        if isinstance(v, ParamRat):
            return v
        if type(v) is int:
            return cls({(0, 0, 0): v} if v else {})
        v = Fraction(v)
        return cls({(0, 0, 0): v.numerator} if v else {}, v.denominator)

    def _over(self, d: int, mono, fac) -> dict:
        """The numerator over the larger denominator d * mu^.. L^.. gamma^.. * factors^fac."""
        num, scale = self.num, d // self.d
        if mono != self.mono:
            num = _shift(num, tuple(a - b for a, b in zip(mono, self.mono)))
        if scale != 1:
            num = {m: v * scale for m, v in num.items()}
        for f, new, old in zip(_FACTORS, fac, self.fac):
            for _ in range(new - old):
                num = _poly_mul(num, f)
        return num

    def _add(self, other, sign: int) -> "ParamRat":
        other = ParamRat.lift(other)
        if not other.num:
            return self
        if not self.num:
            return other if sign > 0 else -other
        d = self.d * other.d // math.gcd(self.d, other.d)
        mono = tuple(map(max, self.mono, other.mono))
        fac = tuple(map(max, self.fac, other.fac))
        return ParamRat(_poly_add(self._over(d, mono, fac), other._over(d, mono, fac), sign), d, mono, fac)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return ParamRat.lift(other)._add(self, -1)

    def __neg__(self):
        return ParamRat({m: -v for m, v in self.num.items()}, self.d, self.mono, self.fac)

    def __mul__(self, other):
        other = ParamRat.lift(other)
        return ParamRat(
            _poly_mul(self.num, other.num),
            self.d * other.d,
            tuple(map(sum, zip(self.mono, other.mono))),
            tuple(map(sum, zip(self.fac, other.fac))),
        )

    __rmul__ = __mul__

    def inverse(self) -> "ParamRat":
        """1 / self; raises ValueError unless the numerator is a monomial times named factors."""
        if not self.num:
            raise ZeroDivisionError("division by zero in Q(mu, L, gamma)")
        mono = _monomial_content(self.num)
        rest, fac = _strip_factors(_shift(self.num, mono, -1), [math.inf] * len(_FACTORS))
        if set(rest) != {(0, 0, 0)}:
            raise ValueError(f"division by a polynomial outside the named factors: {self.num}")
        c = rest[(0, 0, 0)]
        den = ParamRat({(0, 0, 0): self.d * (1 if c > 0 else -1)})._over(1, self.mono, self.fac)
        return ParamRat(den, abs(c), mono, fac)

    def __truediv__(self, other):
        return self * ParamRat.lift(other).inverse()

    def __rtruediv__(self, other):
        return ParamRat.lift(other) * self.inverse()

    def __pow__(self, n: int):
        out = ParamRat.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return not (self - other).num

    __hash__ = None

    def eval(self, mu, L, gamma) -> Fraction:
        """The value at a rational point; ZeroDivisionError where the denominator vanishes."""

        def at(poly):
            return sum((c * mu**i * L**j * gamma**k for (i, j, k), c in poly.items()), Fraction(0))

        den = self.d * mu ** self.mono[0] * L ** self.mono[1] * gamma ** self.mono[2]
        for f, e in zip(_FACTORS, self.fac):
            den *= at(f) ** e
        return at(self.num) / den

    def factors(self) -> set:
        """The named factors in the reduced denominator."""
        return {name for name, e in zip(PROOF_FACTORS, self.fac) if e}

    def __repr__(self):
        return f"ParamRat({self.num}, {self.d}, {self.mono}, {self.fac})"


PARAM_MU = ParamRat({(1, 0, 0): 1})
PARAM_L = ParamRat({(0, 1, 0): 1})
PARAM_GAMMA = ParamRat({(0, 0, 1): 1})


def parametric_certificate(theorem: str, regime: Regime):
    """The certificate of `theorem` in `regime` with mu, L and gamma all symbolic."""
    return _CERTIFICATES[theorem](regime, PARAM_MU, PARAM_L, PARAM_GAMMA)


def certificate_inputs(certificate) -> list:
    """Every scalar a certificate feeds its residual: multipliers, SOS and combination coefficients."""
    weighted, _, sos = certificate
    values = [lam for _, lam, _ in weighted]
    for _, coeff, comb in sos:
        values += [coeff, *comb.coeffs.values()]
    return values


# The sign proof. The domain is 0 <= mu < L and a regime's step interval,
# small [0, 2/(L+mu)] or large [2/(L+mu), 2/L], so a monomial in (mu, L,
# gamma) is >= 0 and so is a polynomial whose coefficients are all >= 0. A
# coefficient is factored into a monomial, named factors and such a leftover;
# each named factor's sign on the interval is proven from its values at the
# two endpoints.

# The named factors of the sign proof: the denominator factors above, plus
# three that occur only in numerators.
SIGN_FACTORS = {
    **PROOF_FACTORS,
    "1 - gamma*mu": {(0, 0, 0): 1, (1, 0, 1): -1},
    "gamma*L - 1": {(0, 1, 1): 1, (0, 0, 0): -1},
    "2 - gamma*(L+mu)": {(0, 0, 0): 2, (0, 1, 1): -1, (1, 0, 1): -1},
}
assert all(f[max(f)] in (1, -1) for f in SIGN_FACTORS.values())
# L - mu > 0 is part of the domain; every other factor's sign is proven.
DOMAIN_SIGNS = {"L - mu": 1}

# Each regime's step interval as its two endpoints gamma = p / q, with p and q
# polynomials in (mu, L); q is L + mu, L or 1, positive on the domain.
_ONE_POLY = {(0, 0, 0): 1}
_G_STAR = ({(0, 0, 0): 2}, {(0, 1, 0): 1, (1, 0, 0): 1})  # 2/(L+mu)
STEP_INTERVALS = {
    Regime.SMALL_STEP: (({}, _ONE_POLY), _G_STAR),
    Regime.LARGE_STEP: (_G_STAR, ({(0, 0, 0): 2}, {(0, 1, 0): 1})),
}


def _gamma_degree(f: dict) -> int:
    return max(m[2] for m in f)


def _poly_pow(p: dict, n: int) -> dict:
    out = _ONE_POLY
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def at_step(f: dict, endpoint) -> dict:
    """q^n f(mu, L, p/q) for the endpoint p/q and n f's degree in gamma: f's sign there, in (mu, L)."""
    p, q = endpoint
    n, out = _gamma_degree(f), {}
    for (i, j, k), c in f.items():
        out = _poly_add(out, _poly_mul({(i, j, 0): c}, _poly_mul(_poly_pow(p, k), _poly_pow(q, n - k))))
    return out


def polynomial_sign(poly: dict, signs: dict) -> tuple:
    """(sign, reason): 1 if poly >= 0 on the domain, -1 if <= 0, 0 if it is zero, None if unproven.

    poly is a monomial times the named factors of `signs` (each divided out
    as often as it divides) times a leftover whose coefficients must share
    one sign. A named factor without a proven sign (None) fails the proof.
    `reason` names the factors used, or what failed.
    """
    if not poly:
        return 0, "zero"
    rest, sign, used = _shift(poly, _monomial_content(poly), -1), 1, []
    for name, factor_sign in signs.items():
        while (quo := _poly_div_exact(rest, SIGN_FACTORS[name])) is not None:
            if factor_sign is None:
                return None, f"factor {name} has no proven sign"
            rest, sign = quo, sign * factor_sign
            used.append(name)
    leftover = {c > 0 for c in rest.values()}
    if len(leftover) != 1:
        return None, f"leftover {rest} has coefficients of both signs"
    sign *= 1 if leftover.pop() else -1
    return sign, f"monomial times {used or 'no factor'} times {rest}"


def factor_signs(regime: Regime) -> dict:
    """The sign of each named factor on the regime's step interval, None where it is not proven.

    A factor linear in gamma takes its extremes at the endpoints. A concave
    one (gamma^2 coefficient <= 0, degree 2) lies above the chord between
    them, so nonnegative endpoint values prove it nonnegative. An endpoint
    value is a polynomial in (mu, L), factored over L - mu.
    """
    signs = dict(DOMAIN_SIGNS)
    for name, f in SIGN_FACTORS.items():
        if name in signs:
            continue
        ends = {polynomial_sign(at_step(f, e), DOMAIN_SIGNS)[0] for e in STEP_INTERVALS[regime]} - {0}
        degree = _gamma_degree(f)
        concave = degree == 2 and all(c < 0 for m, c in f.items() if m[2] == 2)
        if ends <= {1} and (degree <= 1 or concave):
            signs[name] = 1
        elif ends <= {-1} and degree <= 1:
            signs[name] = -1
        else:
            signs[name] = None
    return signs


def coefficient_sign(value, signs: dict) -> tuple:
    """(sign, reason) of a certificate coefficient in Q(mu, L, gamma), as `polynomial_sign`.

    The denominator is a positive integer, a monomial and named factors; each
    of those factors needs a proven sign.
    """
    value = ParamRat.lift(value)
    sign, reason = polynomial_sign(value.num, signs)
    for name, e in zip(PROOF_FACTORS, value.fac):
        if e and sign:
            if signs[name] is None:
                return None, f"denominator factor {name} has no proven sign"
            sign *= signs[name] ** e
    return sign, reason


def expanded_report(theorem: str, mu, L, gamma, regime: Regime, mutate=None) -> CertificateReport:
    """The report of verify_<theorem> with its residual always expanded, as before the proof."""
    report = VERIFIERS[theorem](mu, L, gamma, regime, _mutate=mutate)
    mu, L, gamma = _coerce(mu, L, gamma)
    residual = _residual(*_perturb(_CERTIFICATES[theorem](regime, mu, L, gamma), mutate), mu, L, gamma)
    return dataclasses.replace(report, residual_zero=residual.is_zero(), residual=residual)
