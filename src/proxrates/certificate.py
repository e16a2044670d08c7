"""Mechanized verification of the contraction-rate proof certificates.

Each of the three per-iteration contraction theorems (squared distance,
squared residual gradient norm, function-value gap) is proved by one weighted
sum of interpolation inequalities: nonnegative multipliers on the standard
inequalities characterizing smooth strongly convex functions and convex
functions, which after substituting

    x_{k+1} = x_k - gamma (g_k + s_{k+1})        (prox optimality)
    s_*     = -g_*                               (optimality of x_*)

equals the claimed bound minus an explicit nonnegative sum of squares. The
residual, weighted sum minus bound plus the sum of squares, expands to one
sparse linear form, with exact coefficients, in the function values
f_k, f_{k+1}, f_*, h_k, h_{k+1}, h_* and the Gram matrix of the basis

    X = x_k - x_*,  g_k,  g_{k+1},  g_*,  s_k,  s_{k+1}.

These names are derived from one description of a run's points: x_k, the
iterate of each fixed step gamma_i, and x_*. Over steps gamma_0, ..., the
basis is X, then g at each point, then s at each iterate, and the
substitution is x_{k+i+1} = x_{k+i} - gamma_i (g_{k+i} + s_{k+i+1}); the
one-step description gives the names above, in this order, and the forms
accept the names of any description (g_{k+2} is "gk2", f_{k+2} is "fk2").

What each rate assumes is read off its certificate (`TestPairedInequalities`
proves the identities in Q(mu, L, gamma)). The distance and residual
certificates weigh their two smooth inequalities alike, one inequality in both
orders, and their two convex ones alike, so the f and h values cancel. A
smooth pair between x_i and x_j is `smooth.relaxed_distance_condition` between
them, and a convex pair is <s_i - s_j, x_i - x_j>, the monotonicity of the
subgradients of h. So the distance rate needs only that condition between x_k
and x_* and monotone subgradients between x_{k+1} and x_*; the residual rate
needs only that condition and monotone subgradients between x_k and x_{k+1}.
The function-value certificate weighs its three one-sided smooth inequalities,
(k, k+1), (*, k) and (*, k+1), and its two convex ones, (k, k+1) and
(*, k+1), unequally, and no two of them are one inequality in both orders: it
uses all five as they are.

No floating point is used anywhere on this path.

The certificates are proven once, for all parameters, in Q(mu, L, gamma)
(`ParamRat` in tests/helpers.py). `TestParametricProof` expands each
theorem's residual in each regime and finds the zero numerator.
`TestSignProof` factors each multiplier and SOS coefficient into a monomial,
named factors such as 2 - gamma*mu, and a constant, and proves each factor's
sign on the regime's step interval (gamma in [0, 2/(L+mu)] or
[2/(L+mu), 2/L], with 0 <= mu < L) from its values at the two endpoints: it
is linear in gamma, or concave. A point evaluation of these proofs is sound.
The residual is a polynomial in the certificate's inputs: the multipliers,
the SOS and combination coefficients, rho, 1/L and mu/(2(1 - mu/L)). Each
input is a rational function of (mu, L, gamma), and an identity among them
in Q(mu, L, gamma), a zero residual or a factorization, holds wherever they
all evaluate without dividing by zero. That is exactly when `verify_*`
returns: it evaluates every input except the two interpolation constants,
and 0 <= mu < L keeps those finite. The same argument holds for fixed
(mu, L) with gamma symbolic.

So `verify_*` evaluates the proven certificate: it computes the multipliers,
SOS coefficients and combinations and reports the residual as zero. It
expands the residual only when the `_mutate` test hook
(`certify --selftest-mutate`) perturbs one of that certificate's own terms.
Two scalar modes share all the code:

* exact rationals (`fractions.Fraction`): one (mu, L, gamma) point, with
  every sign checked exactly;
* univariate rational functions in the step size (`gamma_symbol()`): every
  step size at once at fixed rational (mu, L). `nonneg` then reports the
  proven sign and evaluates nothing: a term perturbed by DELTA > 0 stays
  nonnegative, and one perturbed by DELTA < 0 reads False, "not proven".

Every `RatFunc` is kept in one canonical form: numerator and denominator
coprime, denominator monic, zero stored as 0/1. A reduced fraction with a
monic denominator is unique, so equality is comparison of coefficients and
every repr and report is determined by the value alone, whatever route built
it. The arithmetic therefore skips work whose result is known. The gcd of a
polynomial and a nonzero constant is 1, and rescaling by a leading coefficient
of 1 is the identity, so skipping either returns what running it would. Two
terms over the same denominator add without cross-multiplying, and a scalar
operand scales or shifts the numerator directly; these routes reach the same
value, hence the same canonical form, so no output can differ.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

__all__ = [
    "Poly",
    "RatFunc",
    "gamma_symbol",
    "VecExpr",
    "SymbolicExpr",
    "inner",
    "norm_sq",
    "fval",
    "interp_smooth",
    "interp_convex",
    "Regime",
    "Multiplier",
    "SosTerm",
    "CertificateReport",
    "verify_distance",
    "verify_residual",
    "verify_funcvalue",
    "alpha_small",
    "beta_small",
    "alpha_large",
    "beta_large",
    "default_grid",
    "numeric_spot_check",
    "SpotCheckResult",
]


def _description(steps: int) -> list[tuple[str, str]]:
    """The points of a run over `steps` fixed steps, as (label, name suffix): x_k, each iterate, x_*."""
    return [("k", "k"), *((f"k+{i}", f"k{i}") for i in range(1, steps + 1)), ("*", "s")]


def _names(steps: int) -> tuple[tuple, tuple, tuple]:
    """The Gram basis, the function symbols and the point labels of the description over `steps` steps.

    The basis is x = x_k - x_*, then each point's gradient, then each
    iterate's subgradient (s_* = -g_* is substituted); the symbols are f at
    each point, then h at each point.
    """
    points = _description(steps)
    basis = ("x", *("g" + p for _, p in points), *("s" + p for _, p in points[:-1]))
    return basis, tuple(kind + p for kind in "fh" for _, p in points), tuple(label for label, _ in points)


BASIS, FUNC_SYMBOLS, LABELS = _names(1)
# the names of every description, by kind: a point's suffix is k, k1, k2, ... (x_k and the iterates) or s (x_*)
_BASIS_NAME = re.compile("x|[gs]k(?:[1-9][0-9]*)?|gs")
_SYMBOL_NAME = re.compile("[fh](?:k(?:[1-9][0-9]*)?|s)")


# --------------------------------------------------------------------------
# univariate polynomials and rational functions over the rationals
# --------------------------------------------------------------------------


def _frac(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def _scalar(v) -> Fraction | None:
    """`v` as a Fraction; None when Fraction() refuses it, so that a RatFunc operator returns NotImplemented."""
    try:
        return _frac(v)
    except (TypeError, ValueError):
        return None


class Poly:
    """Univariate polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [_frac(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def const(cls, v) -> "Poly":
        return cls((v,))

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.c

    def __add__(self, other: "Poly") -> "Poly":
        a, b = (self.c, other.c) if len(self.c) >= len(other.c) else (other.c, self.c)
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-v for v in self.c])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, v) -> "Poly":
        v = _frac(v)
        return Poly([a * v for a in self.c])

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        *low, lead = other.c
        quo = [Fraction(0)] * max(len(rem) - len(low), 0)
        while len(rem) > len(low):
            k = len(rem) - 1 - len(low)
            q = quo[k] = rem.pop() / lead  # the popped term cancels exactly
            if q:
                for i, b in enumerate(low):
                    rem[k + i] -= q * b
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.c[-1])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else Poly()

    def eval(self, v) -> Fraction:
        v = _frac(v)
        out = Fraction(0)
        for a in reversed(self.c):
            out = out * v + a
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            parts.append(f"{a}" if i == 0 else (f"{a}*t^{i}" if i > 1 else f"{a}*t"))
        return " + ".join(parts)


_ZERO, _ONE = Poly(), Poly.const(1)


class RatFunc:
    """Ratio of two `Poly` in canonical form (see the module docstring).

    Every instance is built here: the numerator and denominator are reduced
    by their gcd and the denominator is made monic. The gcd only runs when
    both have degree >= 1, and the rescaling only when the leading
    coefficient is not already 1; in every other case it is known to be 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = _ONE if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = _ZERO, _ONE
        else:
            if num.degree > 0 and den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
            lead = den.c[-1]
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        self.num, self.den = num, den

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            other = _scalar(other)
            return NotImplemented if other is None else RatFunc(self.num + self.den.scale(other), self.den)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            other = _scalar(other)
            return NotImplemented if other is None else RatFunc(self.num - self.den.scale(other), self.den)
        if self.den == other.den:
            return RatFunc(self.num - other.num, self.den)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = _scalar(other)
        return NotImplemented if other is None else RatFunc(self.den.scale(other) - self.num, self.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            other = _scalar(other)
            return NotImplemented if other is None else RatFunc(self.num.scale(other), self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            if (other := _scalar(other)) is None:
                return NotImplemented
            if other == 0:
                raise ZeroDivisionError("division by the zero rational function")
            return RatFunc(self.num.scale(1 / other), self.den)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if self.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        other = _scalar(other)
        return NotImplemented if other is None else RatFunc(self.den.scale(other), self.num)

    def __pow__(self, n: int):
        out = RatFunc(_ONE)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        other = _scalar(other)
        return NotImplemented if other is None else self.den == _ONE and self.num == Poly.const(other)

    def __hash__(self):
        return hash((self.num, self.den))

    def eval(self, v) -> Fraction:
        d = self.den.eval(v)
        if d == 0:
            raise ZeroDivisionError(f"pole of the rational function at {v}")
        return self.num.eval(v) / d

    def __repr__(self):
        if self.den == _ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def gamma_symbol() -> RatFunc:
    """The step size as an indeterminate, enabling the all-step-sizes mode."""
    return RatFunc(Poly((0, 1)))


def _is_zero_scalar(v) -> bool:
    return v.is_zero() if isinstance(v, RatFunc) else v == 0


# --------------------------------------------------------------------------
# linear combinations of basis vectors and Gram-space expressions
# --------------------------------------------------------------------------


class _Form:
    """Sparse linear form: `terms` maps keys to nonzero exact coefficients.

    Every operation builds its result through `_of`, which adds nonzero
    (key, coefficient) items into the terms it is given, in place, and deletes
    a key as soon as its coefficient reaches zero, so construction is
    canonicalization. A sum copies the left operand's terms and adds the right
    one's, each key once; `inner` adds at most two products per pair key,
    (a, b) and (b, a). So a key reaches zero only with its last item, and
    pruning on the spot leaves the terms, in the key order, that summing all
    items first and pruning after would leave. Negating, or scaling by a
    nonzero scalar, creates no zero. The public constructors check each name
    against the naming rule of the point descriptions.
    """

    __slots__ = ("terms",)

    @classmethod
    def _of(cls, items, terms=None):
        """The form adding the nonzero (key, coefficient) items into `terms`, which it owns; keys known valid."""
        terms = {} if terms is None else terms
        for k, v in items:
            if k in terms:
                v = terms[k] + v
                if _is_zero_scalar(v):
                    del terms[k]
                    continue
            terms[k] = v
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other):
        return self._of(other.terms.items(), dict(self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of((), {k: -v for k, v in self.terms.items()})

    def scale(self, v):
        return self._of((), {} if _is_zero_scalar(v) else {k: v * c for k, c in self.terms.items()})

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.terms


class VecExpr(_Form):
    """Linear combination of the basis vectors of any description, exact scalar coefficients."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        self.terms = {}
        for name, v in (coeffs or {}).items():
            if not (name in BASIS or _BASIS_NAME.fullmatch(name)):  # the certificates' own names skip the pattern
                raise ValueError(f"unknown basis vector {name!r}")
            if not _is_zero_scalar(v):
                self.terms[name] = v

    @property
    def coeffs(self) -> dict:
        return self.terms


class SymbolicExpr(_Form):
    """Linear form in the function-value symbols and the Gram matrix of the basis.

    A term's key is a function symbol (a `str`) or an ordered basis pair (a
    `tuple`); `lin` and `gram` are fresh dicts of the two kinds of terms.
    """

    __slots__ = ()

    def __init__(self, lin=None, gram=None):
        terms = self.terms = {}
        for name, v in (lin or {}).items():
            if not (name in FUNC_SYMBOLS or _SYMBOL_NAME.fullmatch(name)):
                raise ValueError(f"unknown function symbol {name!r}")
            if not _is_zero_scalar(v):
                terms[name] = v
        for (a, b), v in (gram or {}).items():
            key = (a, b) if a <= b else (b, a)
            if not (_BASIS_NAME.fullmatch(a) and _BASIS_NAME.fullmatch(b)):
                raise ValueError(f"unknown basis pair {key!r}")
            terms[key] = terms.get(key, 0) + v  # both orders of a pair add into the first one's place
            if _is_zero_scalar(terms[key]):
                del terms[key]

    @property
    def lin(self) -> dict:
        return {k: v for k, v in self.terms.items() if type(k) is str}

    @property
    def gram(self) -> dict:
        return {k: v for k, v in self.terms.items() if type(k) is tuple}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicExpr):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset(self.terms))

    def lin_coeff(self, name: str):
        return self.terms.get(name, Fraction(0))

    def gram_coeff(self, a: str, b: str):
        return self.terms.get((a, b) if a <= b else (b, a), Fraction(0))

    def __repr__(self):
        terms = [f"{v}*{n}" for n, v in sorted(self.lin.items())]
        terms += [f"{v}*<{a},{b}>" for (a, b), v in sorted(self.gram.items())]
        return " + ".join(terms) if terms else "0"


def inner(u: VecExpr, v: VecExpr) -> SymbolicExpr:
    return SymbolicExpr._of(
        ((a, b) if a <= b else (b, a), ca * cb)
        for a, ca in u.terms.items()
        for b, cb in v.terms.items()
    )


def norm_sq(v: VecExpr) -> SymbolicExpr:
    return inner(v, v)


def fval(name: str) -> SymbolicExpr:
    return SymbolicExpr(lin={name: Fraction(1)})


# --------------------------------------------------------------------------
# interpolation inequalities in the canonical basis
# --------------------------------------------------------------------------


def _points(*gammas):
    """Per point label of the description over the fixed steps `gammas`: x, g, s and the name suffix.

    x_* is the origin with s_* = -g_*, and each iterate is substituted:
    x_{k+i+1} = x_{k+i} - gamma_i (g_{k+i} + s_{k+i+1}).
    """
    points = _description(len(gammas))
    g = {label: VecExpr({"g" + p: 1}) for label, p in points}
    s = {label: VecExpr({"s" + p: 1}) for label, p in points[:-1]} | {"*": -g["*"]}
    x = {"k": VecExpr({"x": 1}), "*": VecExpr()}
    for (i, _), (j, _), gamma in zip(points, points[1:], gammas):
        x[j] = x[i] - (g[i] + s[j]).scale(gamma)
    return x, g, s, dict(points)


def _check_labels(*labels: str) -> None:
    for label in labels:
        if label not in LABELS:
            raise ValueError(f"point label must be one of {LABELS}, got {label!r}")


def interp_smooth(i: str, j: str, mu, L, gamma) -> SymbolicExpr:
    """The smooth strongly convex interpolation inequality between points i and j.

    Returns the expression

        f_i - f_j - <g_j, x_i - x_j> - ||g_i - g_j||^2 / (2L)
            - mu / (2 (1 - mu/L)) ||x_i - x_j - (g_i - g_j)/L||^2

    which is nonnegative for every f in F_{mu,L}. Requires 0 <= mu < L. The
    arguments are made exact as in `verify_*`: the step a Fraction or a RatFunc.
    """
    _check_labels(i, j)
    mu, L, gamma = _coerce(mu, L, gamma)
    return _interp_smooth(i, j, mu, L, _points(gamma))


def _interp_smooth(i: str, j: str, mu, L, points) -> SymbolicExpr:
    """`interp_smooth` for any scalars, between two of the `points` built by `_points`; labels and range checked."""
    x, g, _, name = points
    dx = x[i] - x[j]
    dg = g[i] - g[j]
    coeff = mu / (2 * (1 - mu / L))
    return (
        fval("f" + name[i])
        - fval("f" + name[j])
        - inner(g[j], dx)
        - norm_sq(dg).scale(Fraction(1, 2) / L)
        - norm_sq(dx - dg.scale(Fraction(1) / L)).scale(coeff)
    )


def interp_convex(i: str, j: str, gamma) -> SymbolicExpr:
    """The convex (subgradient) inequality h_i - h_j - <s_j, x_i - x_j> >= 0; the step as in `interp_smooth`."""
    _check_labels(i, j)
    return _interp_convex(i, j, _points(_step(gamma)))


def _interp_convex(i: str, j: str, points) -> SymbolicExpr:
    """`interp_convex` for any scalar steps, between two of the `points` built by `_points`; labels checked."""
    x, _, s, name = points
    return fval("h" + name[i]) - fval("h" + name[j]) - inner(s[j], x[i] - x[j])


# --------------------------------------------------------------------------
# the three certificates
# --------------------------------------------------------------------------


class Regime(Enum):
    SMALL_STEP = "small_step"  # gamma <= 2/(L+mu), contraction factor 1 - gamma*mu, attained by mu
    LARGE_STEP = "large_step"  # gamma >= 2/(L+mu), contraction factor gamma*L - 1, attained by L


@dataclass(frozen=True)
class Multiplier:
    name: str
    value: object
    nonneg: bool


@dataclass(frozen=True)
class SosTerm:
    name: str
    coefficient: object
    nonneg: bool
    combination: dict


@dataclass
class CertificateReport:
    theorem: str
    regime: Regime
    mu: Fraction
    L: Fraction
    gamma: object  # Fraction, or RatFunc in the all-step-sizes mode
    multipliers: list[Multiplier]
    sos_terms: list[SosTerm]
    residual_zero: bool
    residual: SymbolicExpr

    @property
    def verified(self) -> bool:
        return (
            self.residual_zero
            and all(m.nonneg for m in self.multipliers)
            and all(t.nonneg for t in self.sos_terms)
        )

    @property
    def symbolic_gamma(self) -> bool:
        return isinstance(self.gamma, RatFunc)

    def to_json_dict(self) -> dict:
        def s(v):
            return repr(v) if isinstance(v, RatFunc) else str(v)

        return {
            "theorem": self.theorem,
            "regime": self.regime.value,
            "mu": str(self.mu),
            "L": str(self.L),
            "gamma": "symbolic" if self.symbolic_gamma else str(self.gamma),
            "verified": self.verified,
            "residual_zero": self.residual_zero,
            "multipliers": [
                {"name": m.name, "value": s(m.value), "nonneg": m.nonneg}
                for m in self.multipliers
            ],
            "sos_terms": [
                {
                    "name": t.name,
                    "coefficient": s(t.coefficient),
                    "nonneg": t.nonneg,
                    "combination": {k: s(v) for k, v in t.combination.items()},
                }
                for t in self.sos_terms
            ],
            "residual": {} if self.residual_zero else {
                "lin": {k: s(v) for k, v in self.residual.lin.items()},
                "gram": {f"{a},{b}": s(v) for (a, b), v in self.residual.gram.items()},
            },
        }


def _step(gamma):
    """An exact step: a Fraction, or a RatFunc kept as it is."""
    return gamma if isinstance(gamma, RatFunc) else Fraction(gamma)


def _coerce(mu, L, gamma):
    mu, L = Fraction(mu), Fraction(L)
    if not 0 <= mu < L:
        raise ValueError("certificates require exact rationals with 0 <= mu < L")
    return mu, L, _step(gamma)


def _nonneg(name: str, value, mutate) -> bool:
    """The exact sign at a point; the proven sign for all steps (see the module docstring)."""
    if not isinstance(value, RatFunc):
        return value >= 0
    return mutate is None or mutate[0] != name or Fraction(mutate[1]) > 0


def _perturb(certificate, mutate):
    """The certificate with the term that `mutate = (name, delta)` names shifted by delta."""
    if mutate is None:
        return certificate
    weighted, target, sos = certificate
    name, delta = mutate
    weighted = [(n, v + Fraction(delta) if n == name else v, ineq) for n, v, ineq in weighted]
    sos = [(n, v + Fraction(delta) if n == name else v, comb) for n, v, comb in sos]
    return weighted, target, sos


def alpha_small(mu, L, gamma):
    """Scaling polynomial of the small-step function-value certificate.

    Concave quadratic in the step size, positive on [0, 2/(L+mu)]:
    alpha(0) = 4(L - mu) and alpha(2/(L+mu)) = 4 L^2 (L-mu)/(L+mu)^2.
    """
    return _alpha_small(mu, L, gamma, 2 - gamma * mu)


def _alpha_small(mu, L, gamma, u):
    gl = gamma * L
    return 2 * L * u - mu * (gl * gl + u * u)


def beta_small(mu, L, gamma):
    return 2 - gamma * (L + mu)


def alpha_large(mu, L, gamma):
    """Scaling polynomial of the large-step function-value certificate.

    Increasing linear in the step size, nonnegative from 2/(L+mu) on:
    alpha(2/(L+mu)) = 2 mu^2 (L-mu)/(L+mu).
    """
    return _alpha_large(mu, L, gamma, 2 - gamma * L)


def _alpha_large(mu, L, gamma, u):
    return 2 * L * mu - u * (L * L + mu * mu)


def beta_large(mu, L, gamma):
    return gamma * (L + mu) - 2


# Each regime as the curvature a that attains its rate rho = |1 - a*gamma|, its
# alpha given u = 2 - a*gamma, and its beta; beta >= 0 exactly on its steps.
_DESCRIPTIONS = {
    Regime.SMALL_STEP: (lambda mu, L: mu, _alpha_small, beta_small),
    Regime.LARGE_STEP: (lambda mu, L: L, _alpha_large, beta_large),
}


def _describe(regime: Regime, mu, L, gamma):
    """The regime's attaining curvature a, a*gamma, its beta and its rate rho at (mu, L, gamma).

    rho = max(1 - mu*gamma, L*gamma - 1) is half their sum, gamma*(L - mu),
    plus half their distance, beta on the regime's steps; as an identity in
    gamma that is 1 - a*gamma (small steps) or a*gamma - 1 (large).
    """
    curvature, _, beta = _DESCRIPTIONS[regime]
    a = curvature(mu, L)
    ga = gamma * a
    return a, ga, beta(mu, L, gamma), 1 - ga if regime is Regime.SMALL_STEP else ga - 1


# A certificate is a triple (weighted, target, sos): per multiplier its name,
# value and inequality (kind, i, j), "smooth" or "convex" between points i and
# j; the target as a function of the points; per SOS term its name, coefficient
# and combination. `_residual` builds the points once, then every inequality
# and the target from them. The builders below work for any scalars (Fraction,
# RatFunc, or a symbolic mu and L): `_coerce` has checked 0 <= mu < L, and the
# point labels are literals. Each shared subexpression is computed once; exact
# values are canonical, so the route changes no output. Divisors are monomials
# times the named factors L - mu, 2 - a*gamma and alpha, as the proof in
# Q(mu, L, gamma) requires. A regime enters through a, alpha and beta, except
# where the function-value certificate branches: no common form in a was found.


def _distance_certificate(regime: Regime, mu, L, gamma):
    a, _, be, rho = _describe(regime, mu, L, gamma)
    lam_h = 2 * gamma
    lam_f = lam_h * rho
    weighted = [
        ("lambda0", lam_f, ("smooth", "*", "k")),
        ("lambda1", lam_f, ("smooth", "k", "*")),
        ("lambda2", lam_h, ("convex", "*", "k+1")),
        ("lambda3", lam_h, ("convex", "k+1", "*")),
    ]

    def target(points):
        return norm_sq(points[0]["k"]).scale(rho * rho) - norm_sq(points[0]["k+1"])

    sos = [
        ("prox_residual", gamma * gamma, VecExpr({"gs": 1, "sk1": 1})),
        ("regime", gamma * be / (L - mu), VecExpr({"x": a, "gk": -1, "gs": 1})),
    ]
    return weighted, target, sos


def _residual_certificate(regime: Regime, mu, L, gamma):
    if gamma == 0:
        raise ValueError("residual certificate requires gamma != 0: its multipliers divide by gamma")
    _, ga, be, rho = _describe(regime, mu, L, gamma)
    lam_f = 2 * rho / gamma
    lam_h, r2 = lam_f * rho, rho * rho
    weighted = [
        ("lambda0", lam_f, ("smooth", "k", "k+1")),
        ("lambda1", lam_f, ("smooth", "k+1", "k")),
        ("lambda2", lam_h, ("convex", "k", "k+1")),
        ("lambda3", lam_h, ("convex", "k+1", "k")),
    ]

    def target(points):
        _, g, s, _ = points
        return norm_sq(g["k"] + s["k"]).scale(r2) - norm_sq(g["k+1"] + s["k+1"])

    sos = [
        ("subgrad_change", r2, VecExpr({"sk": 1, "sk1": -1})),
        ("regime", be / (gamma * (L - mu)), VecExpr({"gk": 1 - ga, "gk1": -1, "sk1": -ga})),
    ]
    return weighted, target, sos


def _funcvalue_certificate(regime: Regime, mu, L, gamma):
    if mu == 0:
        raise ValueError("function-value certificate requires mu > 0")
    _, ga, be, rho = _describe(regime, mu, L, gamma)
    u = 2 - ga
    al = _DESCRIPTIONS[regime][1](mu, L, gamma, u)
    if _is_zero_scalar(al):
        raise ValueError("degenerate step size: the alpha scaling vanishes")
    one, r2, lm, p = Fraction(1), rho * rho, L - mu, ga * mu  # p = a*gamma*mu
    c, c2 = 1 - rho, 1 - r2
    weighted = [
        ("lambda0", rho, ("smooth", "k", "k+1")),
        ("lambda1", c * rho, ("smooth", "*", "k")),
        ("lambda2", c, ("smooth", "*", "k+1")),
        ("lambda3", r2, ("convex", "k", "k+1")),
        ("lambda4", c2, ("convex", "*", "k+1")),
    ]

    def target(points):
        return (fval("fk") + fval("hk")).scale(r2) - (fval("fk1") + fval("hk1")) + (fval("fs") + fval("hs")).scale(c2)

    small = regime is Regime.SMALL_STEP
    den = al if small else gamma * al  # divide last: a RatFunc quotient reduces once
    lbd = L * be / den
    if small:
        mu_u = mu * u
        g = -1 / mu_u
        point = {"sk1": -(2 * lm + p) / (L * mu_u), "gk": g, "gk1": g}
        subgrad_coeff, gs = ga * al / (2 * L * lm * u), lm * u * u / al
    else:
        point = {"sk1": -1 / mu, "gk": -(1 + be) / p, "gk1": -1 / p}  # -(1 + be) = 1 - gamma*(L + mu)
        subgrad_coeff, gs = gamma * al / (2 * mu * lm), u * lm * mu / al
    sos = [
        ("grad_combination", u * be / (2 * den), VecExpr({"gk": 1 - ga, "gk1": -1, "gs": ga})),
        ("point_combination", p * L * u / (2 * lm), VecExpr({"x": one, **point, "gs": 1 / L})),
        ("subgrad_combination", subgrad_coeff, VecExpr({"sk1": one, "gk": (ga - 1) * lbd, "gk1": lbd, "gs": gs})),
    ]
    return weighted, target, sos


# each theorem's builder of its (weighted, target, sos) certificate in one regime, for any scalars
_CERTIFICATES = {
    "distance": _distance_certificate,
    "residual": _residual_certificate,
    "funcvalue": _funcvalue_certificate,
}


def _read_term_names(theorem: str) -> list[str]:
    weighted, _, sos = _CERTIFICATES[theorem](Regime.SMALL_STEP, Fraction(1), Fraction(2), Fraction(1, 2))
    return [name for name, _, _ in weighted + sos]


# each theorem's multiplier and SOS term names in report order, the same in both regimes; read once, at import
_TERM_NAMES = {theorem: _read_term_names(theorem) for theorem in _CERTIFICATES}


def _residual(weighted, target, sos, mu, L, *gammas) -> SymbolicExpr:
    """A certificate's weighted inequalities minus its target plus its SOS terms, expanded over one build of points."""
    points = _points(*gammas)
    total = SymbolicExpr()
    for _, lam, (kind, i, j) in weighted:
        ineq = _interp_smooth(i, j, mu, L, points) if kind == "smooth" else _interp_convex(i, j, points)
        total = total + ineq.scale(lam)
    residual = total - target(points)
    for _, coeff, comb in sos:
        residual = residual + norm_sq(comb).scale(coeff)
    return residual


def _assemble(theorem: str, mu, L, gamma, regime: Regime, mutate) -> CertificateReport:
    """The report of one certificate at exact (mu, L) and an exact or symbolic step.

    The unperturbed residual is proven zero (see the module docstring), so it
    is expanded only when `mutate` perturbs one of this certificate's terms.
    """
    mu, L, gamma = _coerce(mu, L, gamma)
    weighted, target, sos = _perturb(_CERTIFICATES[theorem](regime, mu, L, gamma), mutate)
    multipliers = [Multiplier(name, lam, _nonneg(name, lam, mutate)) for name, lam, _ in weighted]
    sos_terms = [
        SosTerm(name, coeff, _nonneg(name, coeff, mutate), dict(comb.coeffs)) for name, coeff, comb in sos
    ]
    own = mutate is not None and mutate[0] in _TERM_NAMES[theorem]
    residual = _residual(weighted, target, sos, mu, L, gamma) if own else SymbolicExpr()
    return CertificateReport(
        theorem, regime, mu, L, gamma, multipliers, sos_terms, residual.is_zero(), residual
    )


def verify_distance(mu, L, gamma, regime: Regime, _mutate=None) -> CertificateReport:
    """Certificate for ||x_{k+1} - x_*||^2 <= rho^2 ||x_k - x_*||^2.

    Multipliers 2*gamma*rho on the smooth inequalities between x_k and x_*
    (both orders) and 2*gamma on the convex inequalities between x_{k+1} and
    x_*; the weighted sum equals the bound minus gamma^2 ||g_* + s_{k+1}||^2
    minus the regime's squared-norm term.
    """
    return _assemble("distance", mu, L, gamma, regime, _mutate)


def verify_residual(mu, L, gamma, regime: Regime, _mutate=None) -> CertificateReport:
    """Certificate for ||g_{k+1} + s_{k+1}||^2 <= rho^2 ||g_k + s_k||^2.

    Uses only the inequalities between the consecutive iterates, with
    multipliers 2*rho/gamma (smooth pair) and 2*rho^2/gamma (convex pair).
    """
    return _assemble("residual", mu, L, gamma, regime, _mutate)


def verify_funcvalue(mu, L, gamma, regime: Regime, _mutate=None) -> CertificateReport:
    """Certificate for F(x_{k+1}) - F_* <= rho^2 (F(x_k) - F_*).

    Five inequalities with multipliers rho, (1-rho)rho, 1-rho, rho^2, 1-rho^2
    and three squared-norm terms whose coefficients carry the regime scaling
    polynomials alpha and beta. Requires mu > 0: the stored combinations
    divide by mu.
    """
    return _assemble("funcvalue", mu, L, gamma, regime, _mutate)


VERIFIERS = {
    "distance": verify_distance,
    "residual": verify_residual,
    "funcvalue": verify_funcvalue,
}


def default_grid() -> list[tuple[Fraction, Fraction, Fraction, Regime]]:
    """Exact-rational verification grid covering both regimes and the boundary.

    mu in {L/10, L/2, 9L/10}, L in {1, 3, 10}, and per pair seven step sizes:
    1/1000, 1/L, the regime boundary 2/(L+mu) and both its 1/1000-shifts, and
    2/L with its 1/1000-shift. The boundary appears once per regime.
    """
    eps = Fraction(1, 1000)
    grid = []
    for L_int in (1, 3, 10):
        L = Fraction(L_int)
        for frac in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            mu = frac * L
            g_star = 2 / (L + mu)
            for g in (eps, 1 / L, g_star - eps, g_star, g_star + eps, 2 / L - eps, 2 / L):
                grid += [(mu, L, g, regime) for regime in _regimes(mu, L, g)]
    return grid


def _regimes(mu, L, gamma) -> list[Regime]:
    """The regimes whose beta is >= 0 at gamma: small below 2/(L+mu), large above, both (small first) at it."""
    return [regime for regime, (_, _, beta) in _DESCRIPTIONS.items() if beta(mu, L, gamma) >= 0]


# --------------------------------------------------------------------------
# floating-point spot evaluation (independent oracle for the exact engine)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpotCheckResult:
    max_abs: float
    min_value: float
    max_value: float


def evaluate_expr(expr: SymbolicExpr, vectors: dict, values: dict) -> float:
    """Evaluate an expression at concrete vectors and function values.

    The function values are summed first, in the order of the symbols (f,
    then h; x_k, each iterate, x_*), then the Gram entries in the
    expression's order. A name the assignment lacks raises ValueError.
    """
    total, lin = 0.0, expr.lin
    try:
        for name in sorted(lin, key=lambda n: (n[0], n[1] == "s", len(n), n)):
            total += float(lin[name]) * float(values[name])
        for (a, b), c in expr.gram.items():
            total += float(c) * float(vectors[a] @ vectors[b])
    except KeyError as missing:
        raise ValueError(f"the assignment has no value for {missing.args[0]!r}") from None
    return total


def _trace_assignment(rng, mu: float, L: float, gamma: float, seed: int):
    import numpy as np

    from .engine import pgm_step
    from .prox import L1Norm, NonnegIndicator, Zero
    from .rates import ClassParams
    from .smooth import CompositeProblem, random_instance

    params = ClassParams(mu, L)
    f = random_instance(params, 3, seed)
    h = [Zero(3), NonnegIndicator(3), L1Norm(0.7, 3)][int(rng.integers(3))]
    problem = CompositeProblem(f, h)
    x_star, _ = problem.optimum()
    x_k = rng.uniform(-1.5, 1.5, size=3)
    if isinstance(h, NonnegIndicator):
        x_k = np.abs(x_k)
    s_k = h.subgradient(x_k)
    x_k1, s_k1 = pgm_step(problem, gamma, x_k)
    vectors, values = {"x": x_k - x_star}, {}
    for (_, p), point in zip(_description(1), (x_k, x_k1, x_star)):
        vectors["g" + p], values["f" + p], values["h" + p] = f.grad(point), f.value(point), h.value(point)
    vectors |= {"s" + p: s for (_, p), s in zip(_description(1), (s_k, s_k1))}  # x_k's and x_{k+1}'s
    return vectors, values


def numeric_spot_check(
    expr: SymbolicExpr,
    mu,
    L,
    gamma,
    trials: int = 20,
    seed: int = 0,
    assignment: str = "random",
) -> SpotCheckResult:
    """Evaluate expr at `trials` concrete assignments; floats, dimension 3.

    assignment="random" draws independent vectors and values, which suffices
    to expose any nonzero expression. assignment="trace" instead derives every
    symbol from an actual catalog problem and one prox-gradient step with the
    given step size, so true inequalities evaluate nonnegative as well.
    """
    import numpy as np

    if any(isinstance(c, RatFunc) for c in expr.terms.values()):
        raise ValueError("spot checks need a concrete rational step size, not a symbol")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi, big = math.inf, -math.inf, 0.0
    for t in range(trials):
        if assignment == "random":
            vectors = {name: rng.standard_normal(3) for name in BASIS}
            values = {name: float(rng.standard_normal()) for name in FUNC_SYMBOLS}
        elif assignment == "trace":
            vectors, values = _trace_assignment(rng, float(mu), float(L), float(gamma), seed + t)
        else:
            raise ValueError("assignment must be 'random' or 'trace'")
        v = evaluate_expr(expr, vectors, values)
        lo, hi, big = min(lo, v), max(hi, v), max(big, abs(v))
    return SpotCheckResult(big, lo, hi)
