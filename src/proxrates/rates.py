"""Closed-form worst-case convergence rates for the proximal gradient method.

Everything in here is a pure formula: the per-iteration contraction factor,
the optimal fixed step size, the strong-convexity conversions between
measures, and the lookup table of global guarantees for every (initial
measure, final measure) pair, including the step-size-1/L conjectured-tight
values and their smooth-convex (mu = 0) limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

__all__ = [
    "ClassParams",
    "Rate",
    "MeasureKind",
    "Provenance",
    "BoundValue",
    "contraction",
    "rate_branch",
    "optimal_step",
    "bound_lookup",
    "classical_nontight_bound",
]

# The theory's one deliberate slack: a float step within this relative distance
# of 1/L or of 2/L is read as that step.
_REL_TOL = 1e-12


def _max_step(L: float) -> float:
    """The largest step the theory covers: 2/L, with its slack."""
    return 2.0 / L * (1 + _REL_TOL)


@dataclass(frozen=True)
class ClassParams:
    """Function-class constants: strong-convexity modulus mu and smoothness L.

    mu = 0 encodes the smooth convex limit; it is only accepted by the
    operations that have a meaningful mu -> 0 form.
    """

    mu: float
    L: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.L)):
            raise ValueError("mu and L must be finite")
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if not 0 <= self.mu <= self.L:
            raise ValueError(f"need 0 <= mu <= L, got mu={self.mu}, L={self.L}")

    def require_strongly_convex(self) -> None:
        if self.mu == 0:
            raise ValueError("this bound requires mu > 0 (strong convexity)")


@dataclass(frozen=True)
class Rate:
    """Per-iteration contraction factor and its square.

    Stored together so that rho_squared is exactly rho * rho and downstream
    code never recomputes the square with different rounding.
    """

    rho: float
    rho_squared: float

    @classmethod
    def from_rho(cls, rho: float) -> "Rate":
        return cls(rho, rho * rho)

    def geometric(self, k: int) -> float:
        """rho^(2k), the k-iteration squared-measure factor."""
        return _power(self.rho_squared, k, "rho^(2k)")


def _power(base: float, k: int, what: str) -> float:
    """base ** k, where a float overflow is a ValueError naming k."""
    try:
        return base**k
    except OverflowError:
        raise ValueError(f"{what} overflows a float at k = {k}") from None


class MeasureKind(Enum):
    DISTANCE_SQ = "dist_sq"
    FUNC_GAP = "func_gap"
    RESIDUAL_GRAD_SQ = "residual_grad_sq"


class Provenance(Enum):
    """Status of a bound value.

    PROVEN_TIGHT: exact worst case, attained (diagonal measure pairs).
    PROVEN_UPPER_TIGHT_SMALL_STEP: proven upper bound, attained for step
        sizes up to 2/(L+mu), conservative beyond.
    CONJECTURED_TIGHT: lower bound attained by an explicit instance and
        numerically matching the true worst case, but without an analytical
        tightness proof.
    CLASSICAL_NOT_TIGHT: textbook bound carrying the L/mu leading constant,
        kept only for comparison reports.
    """

    PROVEN_TIGHT = "proven_tight"
    PROVEN_UPPER_TIGHT_SMALL_STEP = "proven_upper_tight_small_step"
    CONJECTURED_TIGHT = "conjectured_tight"
    CLASSICAL_NOT_TIGHT = "classical_not_tight"


@dataclass(frozen=True)
class BoundValue:
    """Factor multiplying the initial measure; math.inf encodes an unbounded cell."""

    value: float
    provenance: Provenance

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.value)


def contraction(params: ClassParams, gamma: float) -> Rate:
    """Contraction factor max{|1 - L*gamma|, |1 - mu*gamma|} of one PGM step.

    Total in gamma; the value only certifies a convergence rate for
    0 <= gamma <= 2/L, where it lies in [0, 1].
    """
    rho = max(abs(1.0 - params.L * gamma), abs(1.0 - params.mu * gamma))
    return Rate.from_rho(rho)


def rate_branch(params: ClassParams, gamma: float) -> str:
    """Which curve attains the contraction factor: "mu" below 2/(L+mu), "L" above."""
    return "mu" if abs(1.0 - params.mu * gamma) >= abs(1.0 - params.L * gamma) else "L"


def optimal_step(params: ClassParams) -> tuple[float, Rate]:
    """Step size 2/(L+mu) minimizing the contraction factor, and that factor.

    Valid for mu = 0 as well, where it returns (2/L, 1): no linear rate.
    """
    gamma_star = 2.0 / (params.L + params.mu)
    rho_star = (params.L - params.mu) / (params.L + params.mu)
    return gamma_star, Rate.from_rho(rho_star)


def _geometric_minus_one(q: float, m: int) -> float:
    """(1-q)^(-m) - 1 computed without cancellation for small q in (0, 1); inf for q >= 1."""
    return math.expm1(-m * math.log1p(-q)) if q < 1.0 else math.inf


class _Cell(NamedTuple):
    """A table cell: printed form, factor B(mu, L, gamma, k) and provenance; no factor when open."""

    form: str
    factor: Callable[[float, float, float, int], float] | None = None
    provenance: Provenance | None = None


def _decay(mu: float, L: float, gamma: float, k: int) -> float:
    return contraction(ClassParams(mu, L), gamma).geometric(k)


_D, _G, _R = MeasureKind.DISTANCE_SQ, MeasureKind.FUNC_GAP, MeasureKind.RESIDUAL_GRAD_SQ
_TIGHT = Provenance.PROVEN_TIGHT
_UPPER = Provenance.PROVEN_UPPER_TIGHT_SMALL_STEP
_CONJ = Provenance.CONJECTURED_TIGHT
_DIAGONAL = _Cell("rho^(2k)", _decay, _TIGHT)
_ONE = _Cell("1", lambda mu, L, g, k: 1.0, _TIGHT)
_UNBOUNDED = _Cell("Unbounded", lambda mu, L, g, k: math.inf, _CONJ)

# The three strong-convexity conversions at a feasible point x with subgradient s of h,
# each mapping (initial, final) measure to (value, mu) -> the bound that value gives on the final measure:
#   (iii) ||x - x*||^2 <= 2 (F(x) - F*) / mu
#   (i)   ||x - x*||^2 <= ||grad f(x) + s||^2 / mu^2
#   (ii)  F(x) - F*    <= ||grad f(x) + s||^2 / (2 mu)
# Each proven off-diagonal cell contracts its initial measure k times, then converts it once.
CONVERSIONS: dict[tuple[MeasureKind, MeasureKind], Callable[[float, float], float]] = {
    (_G, _D): lambda value, mu: 2 * value / mu,
    (_R, _D): lambda value, mu: value / mu**2,
    (_R, _G): lambda value, mu: value / (2 * mu),
}


def _converted(cell: tuple[MeasureKind, MeasureKind], form: str) -> _Cell:
    """The proven cell that contracts its initial measure k times, then converts it once."""
    return _Cell(form, lambda mu, L, g, k: CONVERSIONS[cell](1.0, mu) * _decay(mu, L, g, k), _UPPER)


_GLOBAL = {
    (_D, _D): _DIAGONAL,
    (_D, _G): _Cell("open"),
    (_D, _R): _Cell("open"),
    (_G, _D): _converted((_G, _D), "(2/mu) rho^(2k)"),
    (_G, _G): _DIAGONAL,
    (_G, _R): _Cell("open"),
    (_R, _D): _converted((_R, _D), "rho^(2k)/mu^2"),
    (_R, _G): _converted((_R, _G), "rho^(2k)/(2 mu)"),
    (_R, _R): _DIAGONAL,
}

# The paper's three bound tables by name, each mapping (initial, final)
# measure to its cell in row order: any step in [0, 2/L]; step 1/L, where the
# open cells hold the conjectured-tight values with rho = 1 - mu/L; and their
# mu -> 0 limit.
BOUND_TABLES: dict[str, dict[tuple[MeasureKind, MeasureKind], _Cell]] = {
    "global": _GLOBAL,
    "step_1_over_L": {
        **_GLOBAL,
        (_D, _G): _Cell("(mu/2)/(rho^(-2k)-1)",
                        lambda mu, L, g, k: (mu / 2.0) / _geometric_minus_one(mu * g, 2 * k), _CONJ),
        (_D, _R): _Cell("mu^2/(rho^(-k)-1)^2",
                        lambda mu, L, g, k: mu**2 / _geometric_minus_one(mu * g, k) ** 2, _CONJ),
        (_G, _R): _Cell("2 mu/(rho^(-2k)-1)",
                        lambda mu, L, g, k: 2.0 * mu / _geometric_minus_one(mu * g, 2 * k), _CONJ),
    },
    "smooth_convex_limit": {
        (_D, _D): _ONE,
        (_D, _G): _Cell("L/(4k)", lambda mu, L, g, k: L / (4.0 * k), _CONJ),
        (_D, _R): _Cell("L^2/k^2", lambda mu, L, g, k: L * L / (k * k), _CONJ),
        (_G, _D): _UNBOUNDED,
        (_G, _G): _ONE,
        (_G, _R): _Cell("L/k", lambda mu, L, g, k: L / k, _CONJ),
        (_R, _D): _UNBOUNDED,
        (_R, _G): _UNBOUNDED,
        (_R, _R): _ONE,
    },
}


def bound_lookup(
    init: MeasureKind,
    final: MeasureKind,
    params: ClassParams,
    gamma: float,
    k: int,
    conjectured: bool = False,
) -> BoundValue:
    """Factor B such that (final measure at iteration k) <= B * (initial measure).

    Diagonal pairs return the exact rate rho(gamma)^(2k). Off-diagonal pairs
    with a proven conversion (function gap or residual norm as the *initial*
    measure) return the strong-convexity composition, tight for
    gamma <= 2/(L+mu). The remaining three pairs have no proven finite bound;
    pass conjectured=True with gamma = 1/L to obtain the conjectured-tight
    values, attained by explicit one-dimensional constrained instances.

    With mu = 0, only gamma = 1/L is covered and the sublinear/unbounded
    limit values are returned.
    """
    if k < 1:
        raise ValueError("iteration count k must be >= 1")
    mu, L = params.mu, params.L
    if mu == 0:
        if not math.isclose(gamma, 1.0 / L, rel_tol=_REL_TOL):
            raise ValueError("mu = 0 bounds are only available at gamma = 1/L")
        table = BOUND_TABLES["smooth_convex_limit"]
    else:
        if not 0 <= gamma <= _max_step(L):
            raise ValueError("bounds are only proven for 0 <= gamma <= 2/L")
        table = BOUND_TABLES["global"]
        if table[(init, final)].factor is None:
            if not conjectured:
                raise ValueError(
                    f"no proven bound for {init.value} -> {final.value}; "
                    "conjectured-tight values exist at gamma = 1/L (conjectured=True)"
                )
            if not math.isclose(gamma, 1.0 / L, rel_tol=_REL_TOL):
                raise ValueError("conjectured-tight values are only available at gamma = 1/L")
            table = BOUND_TABLES["step_1_over_L"]
    cell = table[(init, final)]
    try:
        value = cell.factor(mu, L, gamma, k)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if math.isinf(value) and cell is not _UNBOUNDED:
        raise ValueError(f"the {init.value} -> {final.value} bound {cell.form} leaves the float range at k = {k}")
    return BoundValue(value, cell.provenance)


def classical_nontight_bound(
    params: ClassParams, gamma: float, k: int, measure: MeasureKind
) -> BoundValue:
    """Textbook conversion bound with the L/mu constant, for comparison reports.

    Function gap: (L/mu) * rho^(2k). Residual gradient: (L/mu) * rho^k, stated
    for unsquared norms; square it for squared-measure comparisons.
    """
    params.require_strongly_convex()
    if k < 0:
        raise ValueError("iteration count k must be >= 0")
    rate = contraction(params, gamma)
    ratio = params.L / params.mu
    if measure is MeasureKind.FUNC_GAP:
        value = ratio * rate.geometric(k)
    elif measure is MeasureKind.RESIDUAL_GRAD_SQ:
        value = ratio * _power(rate.rho, k, "rho^k")
    else:
        raise ValueError("classical bound is stated for func_gap and residual measures")
    return BoundValue(value, Provenance.CLASSICAL_NOT_TIGHT)
