import hashlib
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrates.certificate import (
    BASIS,
    FUNC_SYMBOLS,
    LABELS,
    Poly,
    RatFunc,
    Regime,
    SymbolicExpr,
    VERIFIERS,
    VecExpr,
    _CERTIFICATES,
    _TERM_NAMES,
    _Form,
    _interp_convex,
    _interp_smooth,
    _is_zero_scalar,
    _names,
    _perturb,
    _points,
    _regimes,
    _residual,
    alpha_large,
    alpha_small,
    default_grid,
    evaluate_expr,
    fval,
    gamma_symbol,
    inner,
    interp_convex,
    interp_smooth,
    norm_sq,
    numeric_spot_check,
    verify_distance,
    verify_funcvalue,
    verify_residual,
)
from proxrates.cli import main
from proxrates.rates import ClassParams
from proxrates.smooth import DiagonalQuadratic, relaxed_distance_condition
from proxrates.worstcase import quadratic_lower_bound

from helpers import (
    PARAM_GAMMA,
    PARAM_L,
    PARAM_MU,
    PROOF_FACTORS,
    REFERENCE_FORM_METHODS,
    SIGN_FACTORS,
    STEP_INTERVALS,
    ParamRat,
    _poly_div_exact,
    certificate_inputs,
    coefficient_sign,
    distance_weighted_sum,
    expanded_report,
    factor_signs,
    gram_value,
    parametric_certificate,
    ratfunc_oracle,
    reference_add,
    reference_display,
    reference_inner,
    reference_neg,
    reference_scale,
    reference_sub,
)

F = Fraction


# ---------------------------------------------------------------- scalars


class TestPolyRatFunc:
    def test_poly_arithmetic(self):
        p = Poly((1, 2))  # 1 + 2t
        q = Poly((0, 0, 3))  # 3t^2
        assert (p * q).c == (0, 0, 3, 6)
        assert (p + q - p) == q
        assert p.eval(F(1, 2)) == 2

    def test_poly_divmod_and_gcd(self):
        a = Poly((-1, 0, 1))  # t^2 - 1
        b = Poly((1, 1))  # t + 1
        quo, rem = a.divmod(b)
        assert rem.is_zero() and quo == Poly((-1, 1))
        assert a.gcd(b) == Poly((1, 1))

    def test_ratfunc_normalizes(self):
        r = RatFunc(Poly((0, 2, 2)), Poly((0, 0, 2)))  # (2t + 2t^2) / (2t^2)
        assert r == RatFunc(Poly((1, 1)), Poly((0, 1)))

    def test_ratfunc_field_ops(self):
        t = gamma_symbol()
        expr = (1 - t * 2) * (1 + t * 2) - (1 - 4 * t**2)
        assert expr.is_zero()
        assert ((t + 1) / (t + 1) - 1).is_zero()
        assert (t / t).eval(F(7)) == 1

    def test_ratfunc_eval_pole(self):
        t = gamma_symbol()
        with pytest.raises(ZeroDivisionError):
            (1 / t).eval(F(0))

    def test_a_foreign_operand_is_declined(self):
        # an operand that Fraction() refuses gets NotImplemented, so a form's reflected product scales it
        t, v = gamma_symbol(), VecExpr({"x": 1, "gk": F(-2, 3)})
        assert _items(t * v) == _items(v.scale(t))
        for other in (v, object(), float("nan"), "one half"):
            for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                       "__rtruediv__", "__eq__"):
                assert getattr(t, op)(other) is NotImplemented, (op, other)
            assert t != other
        for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a / b):
            for left, right in ((t, v), (t, object()), (object(), t), (t, float("nan"))):
                with pytest.raises(TypeError, match="unsupported operand"):
                    combine(left, right)

    @pytest.mark.parametrize("other", [3, F(-2, 7), 0.375, "5/4", True])
    def test_an_operand_that_fraction_accepts_keeps_its_result(self, other):
        # each scalar route equals the same operation on the constant rational function
        t, c = 1 + gamma_symbol() * 2, RatFunc(Poly((F(other),)))
        assert (t + other, other + t, t - other, other - t) == (t + c, c + t, t - c, c - t)
        assert (t * other, other * t, t / other, other / t) == (t * c, c * t, t / c, c / t)
        assert c == other and (t == other) is False

    def test_division_by_an_accepted_zero_still_raises(self):
        t = gamma_symbol()
        for divide in (lambda: t / 0, lambda: t / F(0), lambda: 1 / RatFunc(Poly()), lambda: t / (t - t)):
            with pytest.raises(ZeroDivisionError, match="division by the zero rational function"):
                divide()


# Factors that the operands below share between numerator and denominator.
SHARED_FACTORS = [(1,), (1, 1), (F(-1, 2), 1), (0, 1), (2, 0, 1)]


def _mul(p, q):
    out = [F(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _add(p, q, sign=1):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + sign * (q[i] if i < len(q) else 0) for i in range(n)]


def _parts(v):
    return (v.num.c, v.den.c) if isinstance(v, RatFunc) else ((v,), (1,))


def _assert_canonical(v):
    assert isinstance(v, RatFunc)
    assert (v.num.c, v.den.c) == ratfunc_oracle(v.num, v.den)
    assert all(type(a) is F for a in v.num.c + v.den.c)


@st.composite
def operand_pairs(draw):
    """(a, b): RatFunc, Fraction or int operands, at least one a RatFunc.

    Covers zero, constants, a shared denominator, the same operand twice and
    factors common to a numerator and its denominator.
    """
    coeffs = st.lists(fractions_st(), max_size=3)
    magnitude = st.fractions(min_value=F(1, 16), max_value=4, max_denominator=16)
    lead = st.tuples(magnitude, st.sampled_from([1, -1])).map(lambda p: p[0] * p[1])
    nonzero = st.tuples(st.lists(fractions_st(), max_size=2), lead).map(lambda p: [*p[0], p[1]])

    def ratfunc(den):
        num, factor = draw(coeffs), draw(st.sampled_from(SHARED_FACTORS))
        r = RatFunc(Poly(num) * Poly(factor), Poly(den) * Poly(factor))
        assert (r.num.c, r.den.c) == ratfunc_oracle(_mul(num, factor), _mul(den, factor))
        return r

    a = ratfunc(draw(nonzero))
    mode = draw(st.sampled_from(["ratfunc", "same_den", "same", "fraction", "int"]))
    if mode == "ratfunc":
        b = ratfunc(draw(nonzero))
    elif mode == "same_den":
        b = ratfunc(a.den.c)
    elif mode == "same":
        b = a
    elif mode == "fraction":
        b = draw(fractions_st())
    else:
        b = draw(st.integers(-3, 3))
    return (b, a) if draw(st.booleans()) else (a, b)


class TestCanonicalForm:
    """The RatFunc fast paths give exactly the eagerly normalized result."""

    @settings(max_examples=300, deadline=None)
    @given(operand_pairs(), st.sampled_from("+-*/"))
    def test_operations_match_eager_oracle(self, pair, op):
        a, b = pair
        (na, da), (nb, db) = _parts(a), _parts(b)
        raw = {
            "+": (_add(_mul(na, db), _mul(nb, da)), _mul(da, db)),
            "-": (_add(_mul(na, db), _mul(nb, da), -1), _mul(da, db)),
            "*": (_mul(na, nb), _mul(da, db)),
            "/": (_mul(na, db), _mul(da, nb)),
        }[op]
        compute = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b, "/": lambda: a / b}[op]
        if op == "/" and not any(nb):
            with pytest.raises(ZeroDivisionError):
                compute()
            return
        out = compute()
        _assert_canonical(out)
        assert (out.num.c, out.den.c) == ratfunc_oracle(*raw)

    def test_symbolic_verification_skips_known_gcds(self, monkeypatch):
        calls = []
        gcd = Poly.gcd
        monkeypatch.setattr(Poly, "gcd", lambda p, q: calls.append(1) or gcd(p, q))
        mu, L = F(21, 10), F(3)
        reports = [fn(mu, L, gamma_symbol(), regime) for fn in VERIFIERS.values() for regime in Regime]
        # 17 calls here (234 while every verification expanded its residual); normalizing
        # every RatFunc eagerly made 3,329
        assert len(calls) <= 300
        assert all(rep.verified for rep in reports)
        values = []
        for rep in reports:
            values += [rep.gamma] + [m.value for m in rep.multipliers]
            for t in rep.sos_terms:
                values += [t.coefficient, *t.combination.values()]
        ratfuncs = [v for v in values if isinstance(v, RatFunc)]
        assert len(ratfuncs) > len(reports)
        for v in ratfuncs:
            _assert_canonical(v)


# ------------------------------------------------------------- expressions


def fractions_st():
    return st.fractions(min_value=-4, max_value=4, max_denominator=16)


def symbolic_exprs():
    lin = st.dictionaries(st.sampled_from(FUNC_SYMBOLS), fractions_st(), max_size=4)
    keys = st.tuples(st.sampled_from(BASIS), st.sampled_from(BASIS))
    gram = st.dictionaries(keys, fractions_st(), max_size=6)
    return st.builds(SymbolicExpr, lin, gram)


def vec_exprs():
    return st.builds(VecExpr, st.dictionaries(st.sampled_from(BASIS), fractions_st(), max_size=4))


def assignments():
    """Exact vectors in Q^2 per basis name and exact values per function symbol."""
    vector = st.lists(fractions_st(), min_size=2, max_size=2)
    vectors = st.fixed_dictionaries({name: vector for name in BASIS})
    values = st.fixed_dictionaries({name: fractions_st() for name in FUNC_SYMBOLS})
    return st.tuples(vectors, values)


def _dot(u, v):
    return sum((x * y for x, y in zip(u, v, strict=True)), F(0))


def _vector_value(w: VecExpr, vectors: dict) -> list:
    return [sum((c * vectors[name][i] for name, c in w.coeffs.items()), F(0)) for i in range(2)]


class TestAlgebraLaws:
    # gram_value (tests/helpers.py) evaluates a form exactly without any of its
    # arithmetic, so these laws do not rest on == (which is itself a difference)

    @settings(max_examples=60, deadline=None)
    @given(symbolic_exprs(), symbolic_exprs(), assignments())
    def test_evaluation_is_additive(self, a, b, point):
        assert gram_value(a + b, *point) == gram_value(a, *point) + gram_value(b, *point)
        assert gram_value(a - b, *point) == gram_value(a, *point) - gram_value(b, *point)

    @settings(max_examples=60, deadline=None)
    @given(symbolic_exprs(), fractions_st(), assignments())
    def test_evaluation_is_homogeneous(self, a, s, point):
        assert gram_value(a.scale(s), *point) == s * gram_value(a, *point)
        assert gram_value(s * a, *point) == s * gram_value(a, *point)
        assert gram_value(-a, *point) == -gram_value(a, *point)

    @settings(max_examples=60, deadline=None)
    @given(vec_exprs(), vec_exprs(), fractions_st(), assignments())
    def test_inner_is_the_dot_product(self, u, v, s, point):
        vectors, values = point
        value_u, value_v = _vector_value(u, vectors), _vector_value(v, vectors)
        assert gram_value(inner(u, v), vectors, values) == _dot(value_u, value_v)
        assert gram_value(norm_sq(u), vectors, values) == _dot(value_u, value_u)
        assert _vector_value(u + v, vectors) == [x + y for x, y in zip(value_u, value_v)]
        assert _vector_value(u - v, vectors) == [x - y for x, y in zip(value_u, value_v)]
        assert _vector_value(u.scale(s), vectors) == _vector_value(s * u, vectors) == [s * x for x in value_u]
        assert _vector_value(-u, vectors) == [-x for x in value_u]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(BASIS), min_size=2, max_size=2, unique=True), fractions_st(), fractions_st(),
           assignments())
    def test_both_orders_of_a_pair_add(self, pair, p, q, point):
        (a, b), (vectors, values) = pair, point
        expr = SymbolicExpr(gram={(a, b): p, (b, a): q})
        assert gram_value(expr, vectors, values) == (p + q) * _dot(vectors[a], vectors[b])

    def test_constant_symbol_is_refused(self):
        with pytest.raises(ValueError, match="unknown function symbol 'const'"):
            SymbolicExpr(lin={"const": 1})

    @settings(max_examples=60, deadline=None)
    @given(symbolic_exprs(), symbolic_exprs())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @settings(max_examples=60, deadline=None)
    @given(symbolic_exprs(), symbolic_exprs(), symbolic_exprs())
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=60, deadline=None)
    @given(symbolic_exprs(), symbolic_exprs(), fractions_st())
    def test_scaling_distributes(self, a, b, s):
        assert (a + b).scale(s) == a.scale(s) + b.scale(s)

    @settings(max_examples=60, deadline=None)
    @given(symbolic_exprs())
    def test_self_difference_is_zero(self, a):
        assert (a - a).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(symbolic_exprs())
    def test_canonicalization_idempotent(self, a):
        again = SymbolicExpr(dict(a.lin), dict(a.gram))
        assert again == a and again.lin == a.lin and again.gram == a.gram

    @settings(max_examples=40, deadline=None)
    @given(symbolic_exprs(), symbolic_exprs(), fractions_st(), fractions_st())
    def test_substituted_builds_are_linear(self, a, b, s, t):
        # building from pre-substituted vectors commutes with the module ops
        assert a.scale(s) + b.scale(t) == (b.scale(t) + a.scale(s))
        assert (a + b).scale(s) - b.scale(s) == a.scale(s)


def ratfuncs_st():
    """Rational functions in gamma, some over a denominator of degree 1, zero included."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    shift = st.sampled_from([F(0), F(-1), F(2)])
    return st.builds(lambda a, b, c: RatFunc(Poly((a, b)), Poly((c, 1))), coeff, coeff, shift)


_FORM_KEYS = {
    VecExpr: list(BASIS),
    SymbolicExpr: [*FUNC_SYMBOLS, *((a, b) for a in BASIS for b in BASIS if a <= b)],
}


def _form(kind, terms: dict):
    """The form of `kind` with the nonzero of `terms`, in their order (no arithmetic runs)."""
    out = kind.__new__(kind)
    out.terms = {k: v for k, v in terms.items() if not _is_zero_scalar(v)}
    return out


@st.composite
def cancelling_forms(draw, kind, scalars):
    """Two forms of `kind` in any key order whose shared keys often carry opposite coefficients."""
    keys = _FORM_KEYS[kind]
    a = {k: draw(scalars) for k in draw(st.lists(st.sampled_from(keys), unique=True, max_size=6))}
    b = {}
    for k in draw(st.lists(st.sampled_from([*a, *a, *keys]), unique=True, max_size=6)):
        b[k] = -a[k] if k in a and draw(st.booleans()) else draw(scalars)
    return _form(kind, a), _form(kind, b)


def _items(form) -> list:
    """A form's terms in key order, with each coefficient's type."""
    return [(k, type(v), v) for k, v in form.terms.items()]


class TestInPlaceSumMatchesSumThenPrune:
    """`_Form` arithmetic against the sum-then-prune route it replaced (`helpers.REFERENCE_FORM_METHODS`).

    Equal terms are not enough: the key order reaches every report's residual,
    so each result must list the same keys in the same order.
    """

    @pytest.mark.parametrize("scalars", [fractions_st, ratfuncs_st], ids=["Fraction", "RatFunc"])
    @pytest.mark.parametrize("kind", [VecExpr, SymbolicExpr], ids=["VecExpr", "SymbolicExpr"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_operation(self, kind, scalars, data):
        a, b = data.draw(cancelling_forms(kind, scalars()))
        s = data.draw(scalars())
        cases = [
            (a + b, reference_add(a, b)),
            (a - b, reference_sub(a, b)),
            (b - a, reference_sub(b, a)),
            (-a, reference_neg(a)),
            (a - a + b, reference_add(reference_sub(a, a), b)),
            (a + b - a, reference_sub(reference_add(a, b), a)),
            (a.scale(s), reference_scale(a, s)),
            (a.scale(F(0)), reference_scale(a, F(0))),
            (a.scale(RatFunc(Poly())), reference_scale(a, RatFunc(Poly()))),
        ]
        cases.append((s * a, reference_scale(a, s)))
        if kind is VecExpr:
            # flipping every other sign makes the two products of a pair key cancel
            flipped = _form(VecExpr, {k: -v if i % 2 else v for i, (k, v) in enumerate(a.terms.items())})
            cases += [
                (inner(a, b), reference_inner(a, b)),
                (inner(a, flipped), reference_inner(a, flipped)),
                (norm_sq(a - b), reference_inner(reference_sub(a, b), reference_sub(a, b))),
            ]
        for got, want in cases:
            assert _items(got) == _items(want)

    def test_mutated_residuals_over_the_grid(self, monkeypatch):
        def residuals():
            out = []
            for mu, L, gamma, regime in default_grid():
                for theorem in VERIFIERS:
                    certificate = _CERTIFICATES[theorem](regime, mu, L, gamma)
                    for name in _TERM_NAMES[theorem]:
                        out.append(_items(_residual(*_perturb(certificate, (name, F(1, 1000))), mu, L, gamma)))
            return out

        in_place = residuals()
        with monkeypatch.context() as m:
            for attr, method in REFERENCE_FORM_METHODS.items():
                m.setattr(_Form, attr, method)
            reference = residuals()
        assert len(in_place) == len(default_grid()) * 20 and all(in_place)
        assert in_place == reference


class TestInterpolationBuilders:
    def test_same_point_is_zero(self):
        for lbl in ("k", "k+1", "*"):
            assert interp_smooth(lbl, lbl, 1, 2, F(1, 2)).is_zero()
            assert interp_convex(lbl, lbl, F(1, 2)).is_zero()

    def test_pinned_gradient_coefficient(self):
        # hand-expanded once at mu=1, L=2: the <gk,gk> entry of the (*, k)
        # inequality is -1/(2L) - (mu / (2(1-mu/L))) / L^2 = -1/2
        expr = interp_smooth("*", "k", 1, 2, F(1, 2))
        assert expr.gram_coeff("gk", "gk") == F(-1, 2)

    def test_symmetric_smooth_sum_cancels_values(self):
        expr = interp_smooth("*", "k", 1, 2, F(1, 3)) + interp_smooth("k", "*", 1, 2, F(1, 3))
        assert all(name not in expr.lin for name in ("fk", "fs"))

    def test_symmetric_convex_sum_is_monotonicity(self):
        gamma = F(1, 3)
        expr = interp_convex("*", "k+1", gamma) + interp_convex("k+1", "*", gamma)
        # <s_{k+1} - s_*, x_{k+1} - x_*> with s_* = -g_* and x_{k+1} substituted
        x_k1 = VecExpr({"x": 1, "gk": -gamma, "sk1": -gamma})
        expected = inner(VecExpr({"sk1": 1, "gs": 1}), x_k1)
        assert expr == expected

    def test_h_inequality_has_no_smooth_values(self):
        expr = interp_convex("k", "k+1", F(1, 4))
        assert all(not name.startswith("f") for name in expr.lin)

    def test_substitution_commutes_with_linear_structure(self):
        # the eliminated next iterate x_{k+1} = x_k - gamma (g_k + s_{k+1})
        # behaves linearly inside inner products: <v, x_{k+1} - x_*> equals
        # <v, x_k - x_*> - gamma <v, g_k> - gamma <v, s_{k+1}> for every basis
        # direction and every scaling
        gamma = F(2, 7)
        x_k1 = VecExpr({"x": 1, "gk": -gamma, "sk1": -gamma})
        for name in BASIS:
            v = VecExpr({name: 1})
            direct = inner(v, x_k1)
            split = (
                inner(v, VecExpr({"x": 1}))
                - inner(v, VecExpr({"gk": 1})).scale(gamma)
                - inner(v, VecExpr({"sk1": 1})).scale(gamma)
            )
            assert direct == split
            assert direct.scale(F(3, 5)) == split.scale(F(3, 5))

    def test_degenerate_class_rejected(self):
        with pytest.raises(ValueError):
            interp_smooth("k", "*", 2, 2, F(1, 2))

    def test_the_step_is_made_exact_as_in_verify(self):
        # a float step is its exact binary value and a string is parsed, as `verify_*` coerces them; no float is left
        pairs = [
            (interp_smooth("k", "k+1", 1, 2, 0.1), interp_smooth("k", "k+1", 1, 2, F(0.1))),
            (interp_smooth("*", "k+1", "1/2", 3, "1/3"), interp_smooth("*", "k+1", F(1, 2), 3, F(1, 3))),
            (interp_convex("k", "k+1", 0.1), interp_convex("k", "k+1", F(0.1))),
            (interp_convex("k", "k+1", "1/3"), interp_convex("k", "k+1", F(1, 3))),
        ]
        for expr, exact in pairs:
            assert _items(expr) == _items(exact) and {type(v) for v in expr.terms.values()} == {Fraction}
        symbolic = interp_convex("*", "k+1", gamma_symbol())
        assert symbolic.gram_coeff("gk", "sk1") == -gamma_symbol()  # a RatFunc step is kept as it is

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            interp_smooth("k", "q", 1, 2, F(1, 2))


class TestPointDescription:
    """The basis, symbols, labels and substitutions all follow from one description of the points."""

    def test_one_step_names(self):
        assert BASIS == ("x", "gk", "gk1", "gs", "sk", "sk1")
        assert FUNC_SYMBOLS == ("fk", "fk1", "fs", "hk", "hk1", "hs")
        assert LABELS == ("k", "k+1", "*")
        assert _names(1) == (BASIS, FUNC_SYMBOLS, LABELS)

    def test_two_and_zero_step_names(self):
        basis, symbols, labels = _names(2)
        assert basis == ("x", "gk", "gk1", "gk2", "gs", "sk", "sk1", "sk2")
        assert symbols == ("fk", "fk1", "fk2", "fs", "hk", "hk1", "hk2", "hs")
        assert labels == ("k", "k+1", "k+2", "*")
        assert _names(0) == (("x", "gk", "gs", "sk"), ("fk", "fs", "hk", "hs"), ("k", "*"))

    def test_two_step_substitution(self):
        g0, g1 = F(1, 3), F(2, 7)
        x, g, s, suffix = _points(g0, g1)
        x_k1 = VecExpr({"x": 1, "gk": -g0, "sk1": -g0})
        assert (x["k+1"] - x_k1).is_zero()
        assert (x["k+2"] - (x_k1 - VecExpr({"gk1": g1, "sk2": g1}))).is_zero()
        assert x["*"].is_zero() and (s["*"] + g["*"]).is_zero() and g["*"].coeffs == {"gs": 1}
        assert suffix == {"k": "k", "k+1": "k1", "k+2": "k2", "*": "s"}
        # the one-step points of a two-step description are the one-step description's
        one = _points(g0)
        for label in LABELS:
            assert (x[label] - one[0][label]).is_zero() and (s[label] - one[2][label]).is_zero()

    def test_forms_accept_every_description(self):
        basis, symbols, _ = _names(12)
        expr = SymbolicExpr(lin={name: 1 for name in symbols}, gram={(a, b): 1 for a in basis for b in basis})
        assert set(expr.lin) == set(symbols) and len(expr.gram) == len(basis) * (len(basis) + 1) // 2
        assert set(VecExpr({name: 1 for name in basis}).coeffs) == set(basis)

    @pytest.mark.parametrize("name", ["gk0", "sk01", "ss", "sx", "k1", "gk+1", "xk", "g", "s", "GK", "gk٣", "fk"])
    def test_forms_refuse_other_vector_names(self, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown basis vector '{name}'")):
            VecExpr({name: 1})
        with pytest.raises(ValueError, match="unknown basis pair"):
            SymbolicExpr(gram={("x", name): 1})

    @pytest.mark.parametrize("name", ["fk0", "hk01", "fx", "f", "hk+1", "gk", "x", "Fk", "fk٣", "fss"])
    def test_forms_refuse_other_symbols(self, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown function symbol '{name}'")):
            SymbolicExpr(lin={name: 1})

    def test_two_step_inequalities_between_later_points(self):
        # the convex inequality between x_{k+2} and x_* at steps (g0, g1), written out by hand
        g0, g1 = F(1, 3), F(2, 7)
        x_k2 = VecExpr({"x": 1, "gk": -g0, "sk1": -g0, "gk1": -g1, "sk2": -g1})
        expected = fval("hk2") - fval("hs") - inner(VecExpr({"gs": -1}), x_k2)
        points = _points(g0, g1)
        assert _interp_convex("k+2", "*", points) == expected
        assert _interp_smooth("k+2", "k+2", F(1), F(3), points).is_zero()
        assert _interp_smooth("k", "k+1", F(1), F(3), points) == interp_smooth("k", "k+1", 1, 3, g0)

    def test_evaluation_refuses_a_missing_name(self):
        vectors = {name: np.ones(3) for name in BASIS}
        values = {name: 1.0 for name in FUNC_SYMBOLS}
        assert evaluate_expr(fval("fk1") + norm_sq(VecExpr({"sk1": 1})), vectors, values) == 4.0
        with pytest.raises(ValueError, match="'fk2'"):
            evaluate_expr(fval("fk") + fval("fk2"), vectors, values)
        with pytest.raises(ValueError, match="'gk2'"):
            evaluate_expr(norm_sq(VecExpr({"gk2": 1})), vectors, values)
        with pytest.raises(ValueError, match="'hk2'"):  # the values are read first
            numeric_spot_check(_interp_convex("k+2", "*", _points(F(1, 3), F(1, 3))), 1, 3, F(1, 3))


# ------------------------------------------------------------ certificates


class TestVerifiers:
    def test_distance_reference_values(self):
        rep = verify_distance(1, 2, F(1, 2), Regime.SMALL_STEP)
        assert rep.verified
        vals = {m.name: m.value for m in rep.multipliers}
        assert vals == {"lambda0": F(1, 2), "lambda1": F(1, 2), "lambda2": 1, "lambda3": 1}
        sos = {t.name: t.coefficient for t in rep.sos_terms}
        assert sos["prox_residual"] == F(1, 4)
        assert sos["regime"] == F(1, 4)

    def test_residual_reference_values(self):
        rep = verify_residual(1, 2, F(1, 2), Regime.SMALL_STEP)
        assert rep.verified
        vals = {m.name: m.value for m in rep.multipliers}
        assert vals == {"lambda0": 2, "lambda1": 2, "lambda2": 1, "lambda3": 1}

    def test_funcvalue_multiplier_pattern(self):
        rep = verify_funcvalue(1, 2, F(1, 2), Regime.SMALL_STEP)
        assert rep.verified
        vals = {m.name: m.value for m in rep.multipliers}
        rho = F(1, 2)
        assert vals["lambda0"] == rho
        assert vals["lambda1"] == (1 - rho) * rho
        assert vals["lambda2"] == 1 - rho
        assert vals["lambda3"] == rho * rho
        assert vals["lambda4"] == 1 - rho * rho

    def test_boundary_step_valid_in_both_regimes(self):
        for fn in VERIFIERS.values():
            for regime in Regime:
                rep = fn(1, 2, F(2, 3), regime)
                assert rep.verified, (fn, regime)
        # the regime coefficient vanishes exactly at the boundary
        for fn in (verify_distance, verify_residual):
            rep = fn(1, 2, F(2, 3), Regime.SMALL_STEP)
            assert dict((t.name, t.coefficient) for t in rep.sos_terms)["regime"] == 0

    def test_wrong_regime_fails_signs_not_exceptions(self):
        rep = verify_distance(1, 2, F(1, 10), Regime.LARGE_STEP)
        assert not rep.verified
        assert rep.residual_zero is False or any(not t.nonneg for t in rep.sos_terms) or any(
            not m.nonneg for m in rep.multipliers
        )

    def test_full_grid_verifies(self):
        grid = default_grid()
        assert len(grid) * len(VERIFIERS) >= 100
        for mu, L, gamma, regime in grid:
            for fn in VERIFIERS.values():
                assert fn(mu, L, gamma, regime).verified

    @pytest.mark.parametrize("mu,L", [(F(1), F(3)), (F(0), F(1)), (F(9, 10), F(1))])
    def test_regime_of_a_step(self, mu, L):
        g_star, eps = 2 / (L + mu), F(1, 1000)
        assert _regimes(mu, L, g_star - eps) == [Regime.SMALL_STEP]
        assert _regimes(mu, L, g_star) == [Regime.SMALL_STEP, Regime.LARGE_STEP]
        assert _regimes(mu, L, g_star + eps) == [Regime.LARGE_STEP]

    def test_default_grid_points(self):
        # seven steps per (mu, L) pair; the boundary 2/(L+mu) once per regime, small first
        expected = []
        for L in (F(1), F(3), F(10)):
            for mu in (L / 10, L / 2, 9 * L / 10):
                g_star, eps = 2 / (L + mu), F(1, 1000)
                for g in (eps, 1 / L, g_star - eps, g_star, g_star + eps, 2 / L - eps, 2 / L):
                    if g <= g_star:
                        expected.append((mu, L, g, Regime.SMALL_STEP))
                    if g >= g_star:
                        expected.append((mu, L, g, Regime.LARGE_STEP))
        assert default_grid() == expected and len(expected) == 72

    def test_spec_perturbation_of_convex_multiplier(self):
        # forcing lambda2 from 1 to 2 must break the identity
        rep = verify_distance(1, 2, F(1, 2), Regime.SMALL_STEP, _mutate=("lambda2", 1))
        assert not rep.residual_zero

    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    @pytest.mark.parametrize("point", [(F(1), F(2), F(1, 2), Regime.SMALL_STEP),
                                       (F(1), F(2), F(9, 10), Regime.LARGE_STEP)])
    def test_every_coefficient_mutation_flips(self, theorem, point):
        mu, L, gamma, regime = point
        base = VERIFIERS[theorem](mu, L, gamma, regime)
        assert base.verified
        names = [m.name for m in base.multipliers] + [t.name for t in base.sos_terms]
        for name in names:
            mutated = VERIFIERS[theorem](mu, L, gamma, regime, _mutate=(name, F(1, 1000)))
            assert not mutated.residual_zero, name

    def test_funcvalue_requires_positive_mu(self):
        with pytest.raises(ValueError):
            verify_funcvalue(0, 1, F(1, 2), Regime.SMALL_STEP)

    def test_distance_allows_smooth_convex_limit(self):
        assert verify_distance(0, 1, F(1, 2), Regime.SMALL_STEP).verified
        assert verify_residual(0, 1, F(1, 2), Regime.SMALL_STEP).verified

    def test_report_json_shape(self):
        rep = verify_distance(1, 2, F(1, 2), Regime.SMALL_STEP)
        d = rep.to_json_dict()
        assert d["theorem"] == "distance" and d["regime"] == "small_step"
        assert d["mu"] == "1" and d["gamma"] == "1/2"
        assert d["verified"] is True
        assert {m["name"] for m in d["multipliers"]} == {"lambda0", "lambda1", "lambda2", "lambda3"}
        assert all(set(t) == {"name", "coefficient", "nonneg", "combination"} for t in d["sos_terms"])


class TestAlphaEndpoints:
    @pytest.mark.parametrize("mu,L", [(F(1), F(2)), (F(3), F(10)), (F(1, 10), F(1))])
    def test_small_step_alpha_at_boundary(self, mu, L):
        g_star = 2 / (L + mu)
        assert alpha_small(mu, L, g_star) == 4 * L**2 * (L - mu) / (L + mu) ** 2
        assert alpha_small(mu, L, F(0)) == 4 * (L - mu)

    @pytest.mark.parametrize("mu,L", [(F(1), F(2)), (F(3), F(10)), (F(1, 10), F(1))])
    def test_large_step_alpha_at_boundary(self, mu, L):
        g_star = 2 / (L + mu)
        assert alpha_large(mu, L, g_star) == 2 * mu**2 * (L - mu) / (L + mu)

    def test_reference_point(self):
        # alpha at the boundary step for (1, 2) evaluates to 2/3
        assert alpha_large(F(1), F(2), F(2, 3)) == F(2, 3)


class TestSymbolicGammaMode:
    @pytest.mark.parametrize("mu,L", [(F(1), F(2)), (F(1), F(10))])
    def test_identities_hold_for_all_step_sizes(self, mu, L):
        t = gamma_symbol()
        for fn in VERIFIERS.values():
            for regime in Regime:
                rep = fn(mu, L, t, regime)
                assert rep.residual_zero
                assert rep.verified  # every sign proven on the regime interval (TestSignProof)

    def test_mutated_symbolic_identity_fails(self):
        rep = verify_distance(1, 2, gamma_symbol(), Regime.SMALL_STEP, _mutate=("lambda0", F(1, 7)))
        assert not rep.residual_zero

    def test_negative_perturbation_is_not_proven(self):
        # lambda2 - 1/1000 = 2*t - 1/1000 is negative for t < 1/2000, inside the small-step interval (0, 2/3]
        for delta, nonneg in ((F(-1, 1000), False), (F(1, 1000), True)):
            rep = verify_distance(1, 2, gamma_symbol(), Regime.SMALL_STEP, _mutate=("lambda2", delta))
            signs = {m.name: m.nonneg for m in rep.multipliers} | {t.name: t.nonneg for t in rep.sos_terms}
            assert signs == {name: nonneg or name != "lambda2" for name in _TERM_NAMES["distance"]}
            assert not rep.verified

    def test_verify_path_evaluates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a rational function was evaluated")

        monkeypatch.setattr(RatFunc, "eval", refuse)
        monkeypatch.setattr(Poly, "eval", refuse)
        for mu, L in _seeded_pairs():
            for regime in Regime:
                for theorem in VERIFIERS:
                    outcome = _outcome(theorem, mu, L, gamma_symbol(), regime)
                    if mu == 0 and theorem == "funcvalue":
                        assert outcome == (ValueError, "function-value certificate requires mu > 0")
                    else:
                        assert json.loads(outcome)["verified"], (theorem, mu, L, regime)

    def test_spot_check_rejects_symbolic(self):
        expr = interp_smooth("k", "k+1", 1, 2, gamma_symbol())
        with pytest.raises(ValueError):
            numeric_spot_check(expr, 1, 2, 0.5)


class TestReferenceDisplayRegression:
    def test_weighted_sum_matches_reference_display(self):
        mu, L, gamma = F(1), F(2), F(1, 2)
        S = distance_weighted_sum(mu, L, gamma, Regime.SMALL_STEP)
        display = reference_display(mu, L, gamma)
        # the display is written as "0 >= display", i.e. it is the negative of
        # the (nonnegative) weighted sum
        assert S == display.scale(-1)
        # coefficient-by-coefficient, not just as a whole
        for key, coeff in display.gram.items():
            assert S.gram_coeff(*key) == -coeff, key
        assert not S.lin  # all function values cancel

    def test_display_matches_for_all_step_sizes(self):
        t = gamma_symbol()
        S = distance_weighted_sum(F(1), F(2), t, Regime.SMALL_STEP)
        display = reference_display(F(1), F(2), t)
        assert S == display.scale(-1)


class TestNumericSpotCheck:
    def test_zero_expression_evaluates_to_zero(self):
        res = numeric_spot_check(SymbolicExpr(), 1, 2, 0.5, trials=5)
        assert res.max_abs == 0.0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_is_refused(self, trials):
        # evaluating nothing would read as a vanishing, nonnegative expression
        with pytest.raises(ValueError, match="trials must be >= 1"):
            numeric_spot_check(norm_sq(VecExpr({"x": 1})), 1, 2, 0.5, trials=trials)

    def test_single_gram_entry(self):
        expr = norm_sq(VecExpr({"gk": 1}))
        vectors = {name: np.zeros(3) for name in BASIS}
        vectors["gk"] = np.array([1.0, 2.0, 2.0])
        values = {name: 0.0 for name in FUNC_SYMBOLS}
        assert evaluate_expr(expr, vectors, values) == 9.0

    def test_certificate_residuals_vanish_numerically(self):
        rep = verify_distance(1, 2, F(1, 2), Regime.SMALL_STEP)
        res = numeric_spot_check(rep.residual, 1, 2, 0.5, trials=20, assignment="random")
        assert res.max_abs == 0.0  # residual is the empty expression

    def test_weighted_sum_nonnegative_on_traces(self):
        # the inequality side: the weighted sum evaluates >= 0 on points that
        # come from genuine class members and a real prox-gradient step
        S = distance_weighted_sum(F(1), F(2), F(1, 2), Regime.SMALL_STEP)
        res = numeric_spot_check(S, 1, 2, 0.5, trials=40, seed=5, assignment="trace")
        assert res.min_value >= -1e-9

    def test_funcvalue_sides_agree_at_random_assignments(self):
        # independent float check that the weighted sum equals target - sos
        mu, L, gamma = F(1), F(2), F(2, 5)
        rep = verify_funcvalue(mu, L, gamma, Regime.SMALL_STEP)
        lhs = SymbolicExpr()
        for m, (i, j, kind) in zip(
            rep.multipliers,
            [("k", "k+1", "f"), ("*", "k", "f"), ("*", "k+1", "f"), ("k", "k+1", "h"), ("*", "k+1", "h")],
        ):
            ineq = interp_smooth(i, j, mu, L, gamma) if kind == "f" else interp_convex(i, j, gamma)
            lhs = lhs + ineq.scale(m.value)
        rho = 1 - gamma * mu
        target = SymbolicExpr(
            lin={
                "fk": rho**2, "hk": rho**2,
                "fk1": F(-1), "hk1": F(-1),
                "fs": 1 - rho**2, "hs": 1 - rho**2,
            }
        )
        rhs = target
        for t in rep.sos_terms:
            rhs = rhs - norm_sq(VecExpr(t.combination)).scale(t.coefficient)
        rng = np.random.default_rng(0)
        for _ in range(20):
            vectors = {name: rng.standard_normal(3) for name in BASIS}
            values = {name: float(rng.standard_normal()) for name in FUNC_SYMBOLS}
            a = evaluate_expr(lhs, vectors, values)
            b = evaluate_expr(rhs, vectors, values)
            assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))


# ------------------------------------------------------- the parametric proof


class TestParametricProof:
    """Each certificate's residual is the zero element of Q(mu, L, gamma).

    This is what lets `verify_*` skip the expansion: see the module docstring
    of `proxrates.certificate`.
    """

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_residual_is_identically_zero(self, theorem, regime):
        certificate = parametric_certificate(theorem, regime)
        assert _residual(*certificate, PARAM_MU, PARAM_L, PARAM_GAMMA).is_zero()
        inputs = certificate_inputs(certificate)
        assert any(isinstance(v, ParamRat) and v.factors() for v in inputs)
        for v in inputs:
            assert ParamRat.lift(v).factors() <= set(PROOF_FACTORS)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_every_perturbed_term_leaves_a_residual(self, theorem, regime):
        names = _TERM_NAMES[theorem]
        assert len(names) == len(set(names))
        for name in names:
            for delta in (ParamRat.lift(1), PARAM_GAMMA * PARAM_MU):
                weighted, target, sos = parametric_certificate(theorem, regime)
                weighted = [(n, v + delta if n == name else v, ineq) for n, v, ineq in weighted]
                sos = [(n, v + delta if n == name else v, comb) for n, v, comb in sos]
                assert not _residual(weighted, target, sos, PARAM_MU, PARAM_L, PARAM_GAMMA).is_zero(), (name, delta)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_proof_inputs_are_the_point_inputs(self, theorem, regime):
        # the symbolic certificate evaluated at a point is the point certificate
        rng = random.Random(7)
        symbolic = certificate_inputs(parametric_certificate(theorem, regime))
        for _ in range(5):
            L = Fraction(rng.randint(1, 20), rng.randint(1, 5))
            mu, gamma = L * Fraction(rng.randint(1, 19), 20), Fraction(rng.randint(1, 40), 10) / L
            point = certificate_inputs(_CERTIFICATES[theorem](regime, mu, L, gamma))
            assert [ParamRat.lift(v).eval(mu, L, gamma) for v in symbolic] == point

    def test_arithmetic_against_fractions(self):
        rng = random.Random(3)
        atoms = [PARAM_MU, PARAM_L, PARAM_GAMMA, ParamRat.lift(Fraction(-3, 2))]
        atoms += [1 / ParamRat(dict(f)) for f in PROOF_FACTORS.values()]
        for _ in range(200):
            a, b = rng.choice(atoms), rng.choice(atoms)
            point = (Fraction(rng.randint(1, 9), 7), Fraction(rng.randint(10, 30), 7), Fraction(rng.randint(1, 9), 11))
            try:
                x, y = a.eval(*point), b.eval(*point)
            except ZeroDivisionError:
                continue
            assert (a + b).eval(*point) == x + y
            assert (a - b).eval(*point) == x - y
            assert (a * b).eval(*point) == x * y
            assert (a * b / a).eval(*point) == y
            assert (a * b - b * a) == 0 and (a - a).num == {}

    def test_division_outside_the_named_factors_is_refused(self):
        with pytest.raises(ValueError, match="named factors"):
            ParamRat.lift(1) / (PARAM_L + PARAM_MU)

    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_term_names_are_the_report_names_in_both_regimes(self, theorem):
        for regime in Regime:
            rep = VERIFIERS[theorem](F(1), F(3), F(1, 3), regime)
            assert [m.name for m in rep.multipliers] + [t.name for t in rep.sos_terms] == _TERM_NAMES[theorem]


def _next_name(name: str) -> str:
    """A basis name one point on: g_k -> g_{k+1}, s_{k+1} -> s_{k+2}; g_* stays."""
    return name if name.endswith("s") else f"{name[0]}k{int(name[2:] or 0) + 1}"


_NEXT_LABEL = {"k": "k+1", "k+1": "k+2", "*": "*"}


def _two_step_distance_chain(regime: Regime, mu=PARAM_MU, L=PARAM_L, gamma=PARAM_GAMMA):
    """rho^2 times the distance certificate at step k, plus the same certificate at step k+1, over Q(mu, L, gamma).

    The step-k certificate is the one-step one. The step-(k+1) one weighs the
    same inequalities between the points one step on, in the two-step
    description, and its SOS combinations are the same with each name one
    point on and x_k - x_* replaced by x_{k+1} - x_*. The chain's claim is
    ||x_{k+2} - x_*||^2 <= rho^4 ||x_k - x_*||^2. Its residual is expanded
    over the two-step points, `_residual(..., mu, L, gamma, gamma)`.
    """
    rho = 1 - gamma * mu if regime is Regime.SMALL_STEP else gamma * L - 1
    r2 = rho * rho
    weighted, _, sos = _CERTIFICATES["distance"](regime, mu, L, gamma)
    x = _points(gamma, gamma)[0]

    def later(comb: VecExpr) -> VecExpr:
        out = VecExpr()
        for name, c in comb.coeffs.items():
            out = out + (x["k+1"] if name == "x" else VecExpr({_next_name(name): 1})).scale(c)
        return out

    def one_on(ineq):
        kind, i, j = ineq
        return kind, _NEXT_LABEL[i], _NEXT_LABEL[j]

    chain_weighted = [(n + "@k", r2 * lam, ineq) for n, lam, ineq in weighted]
    chain_weighted += [(n + "@k+1", lam, one_on(ineq)) for n, lam, ineq in weighted]
    chain_sos = [(n + "@k", r2 * c, comb) for n, c, comb in sos] + [(n + "@k+1", c, later(comb)) for n, c, comb in sos]

    def claim(points):
        x = points[0]
        return norm_sq(x["k"]).scale(r2 * r2) - norm_sq(x["k+2"])

    return chain_weighted, claim, chain_sos


# (mu, L, gamma, gamma): the scalars of the chain's two-step description over Q(mu, L, gamma)
_TWO_STEPS = (PARAM_MU, PARAM_L, PARAM_GAMMA, PARAM_GAMMA)


class TestTwoStepChain:
    """Two distance certificates, at steps k and k+1 of a two-step description, prove the two-step rate in Q."""

    @pytest.mark.parametrize("regime", list(Regime))
    def test_chain_residual_is_identically_zero(self, regime):
        weighted, claim, sos = _two_step_distance_chain(regime)
        assert len(weighted) == 8 and len(sos) == 4
        assert _residual(weighted, claim, sos, *_TWO_STEPS).is_zero()
        # the later certificate reaches x_{k+2} = x_{k+1} - gamma (g_{k+1} + s_{k+2})
        assert weighted[6][2] == ("convex", "*", "k+2")
        later = _interp_convex("*", "k+2", _points(*_TWO_STEPS[2:]))  # h_* - h_{k+2} - <s_{k+2}, x_* - x_{k+2}>
        assert later.gram_coeff("gk1", "sk2") == -PARAM_GAMMA and later.lin_coeff("hk2") == -1

    @pytest.mark.parametrize("regime", list(Regime))
    def test_every_perturbed_term_leaves_a_residual(self, regime):
        weighted, claim, sos = _two_step_distance_chain(regime)
        terms = weighted + sos
        for k, (name, _, _) in enumerate(terms):
            perturbed = [(n, v + PARAM_GAMMA if i == k else v, term) for i, (n, v, term) in enumerate(terms)]
            assert not _residual(perturbed[:8], claim, perturbed[8:], *_TWO_STEPS).is_zero(), name

    def test_the_chain_holds_at_a_point(self):
        # the same chain in exact rationals at (mu, L, gamma) = (1, 3, 1/5)
        weighted, claim, sos = _two_step_distance_chain(Regime.SMALL_STEP, F(1), F(3), F(1, 5))
        assert _residual(weighted, claim, sos, F(1), F(3), F(1, 5), F(1, 5)).is_zero()
        assert claim(_points(F(1, 5), F(1, 5))).gram_coeff("x", "x") == F(4, 5) ** 4 - 1


def _smooth_pair(i, j, mu, L, gamma) -> SymbolicExpr:
    points = _points(gamma)
    return _interp_smooth(i, j, mu, L, points) + _interp_smooth(j, i, mu, L, points)


def _distance_pair(mu, L) -> SymbolicExpr:
    """The two interpolation inequalities between x_k and x* that the distance certificate weighs alike."""
    return _smooth_pair("*", "k", mu, L, PARAM_GAMMA)


class TestRelaxedDistanceCondition:
    """`smooth.relaxed_distance_condition` is the distance certificate's pair of inequalities.

    lambda0 and lambda1 carry the same weight, so the distance rate holds for
    every f that satisfies this one condition between x_k and x*.
    """

    def test_the_pair_is_the_condition_over_Q_mu_L(self):
        # <g* - g, x* - x> - ||g - g*||^2 / L - mu/(1 - mu/L) ||x - x* - (g - g*)/L||^2, x* at the origin
        mu, L = PARAM_MU, PARAM_L
        x, g, gs = VecExpr({"x": 1}), VecExpr({"gk": 1}), VecExpr({"gs": 1})
        condition = (
            inner(gs - g, -x)
            - norm_sq(g - gs).scale(1 / L)
            - norm_sq(x - (g - gs).scale(1 / L)).scale(mu / (1 - mu / L))
        )
        assert (_distance_pair(mu, L) - condition).is_zero()

    def test_float_condition_evaluates_the_pair(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            dim = int(rng.integers(1, 6))
            L = float(rng.uniform(0.5, 20))
            mu = L * float(rng.uniform(0, 0.95))
            # any quadratic, rank-deficient ones included: the identity holds pointwise
            d = rng.uniform(0, L, dim) * (rng.random(dim) < 0.8)
            f = DiagonalQuadratic(d, rng.normal(size=dim), ClassParams(0, L))
            x, x_star = rng.normal(size=dim) * 3, rng.normal(size=dim)
            pair = _distance_pair(Fraction(mu), Fraction(L))
            vectors = {"x": x - x_star, "gk": f.grad(x), "gs": f.grad(x_star)}
            values = {name: float(rng.normal()) for name in FUNC_SYMBOLS}  # the f values cancel
            expected = evaluate_expr(pair, vectors, values)
            got = relaxed_distance_condition(f, ClassParams(mu, L), x, x_star)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9 * (1 + float(np.sum(x * x))) * L)


# the two pairs each certificate weighs alike: one inequality in both orders between two points
_PAIRED = {
    "distance": (("*", "k"), ("*", "k+1")),
    "residual": (("k", "k+1"), ("k", "k+1")),
}


class TestPairedInequalities:
    """The distance and residual rates need only two symmetric conditions between two points.

    Each certificate weighs its two smooth inequalities alike and its two
    convex ones alike, so the f and h values cancel. The smooth pair is
    `relaxed_distance_condition` between the two points, and the convex pair
    is the monotonicity of h's subgradients between its two points: between
    x_k and x* and between x_{k+1} and x* (distance), and between x_k and
    x_{k+1} for both (residual).
    """

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theorem", list(_PAIRED))
    def test_each_pair_carries_one_weight(self, theorem, regime):
        weighted, _, _ = parametric_certificate(theorem, regime)
        (_, l0, _), (_, l1, _), (_, l2, _), (_, l3, _) = weighted
        assert l0 == l1 and l2 == l3
        (i, j), (p, q) = _PAIRED[theorem]
        used = [ineq for _, _, ineq in weighted]
        assert used == [("smooth", i, j), ("smooth", j, i), ("convex", p, q), ("convex", q, p)]

    def test_funcvalue_weighs_no_inequality_in_both_orders(self):
        # five one-sided inequalities, none of them the reverse of another of its kind
        for regime in Regime:
            weighted, _, _ = parametric_certificate("funcvalue", regime)
            used = [ineq for _, _, ineq in weighted]
            assert len(used) == 5 and not any((kind, j, i) in used for kind, i, j in used)

    @pytest.mark.parametrize("theorem", list(_PAIRED))
    def test_smooth_pair_is_the_condition_over_Q_mu_L_gamma(self, theorem):
        # <g_j - g_i, x_j - x_i> - ||g_i - g_j||^2 / L - mu/(1 - mu/L) ||x_i - x_j - (g_i - g_j)/L||^2
        mu, L, gamma = PARAM_MU, PARAM_L, PARAM_GAMMA
        (i, j), _ = _PAIRED[theorem]
        x, g, _, _ = _points(gamma)
        dx, dg = x[i] - x[j], g[i] - g[j]
        condition = inner(dg, dx) - norm_sq(dg).scale(1 / L) - norm_sq(dx - dg.scale(1 / L)).scale(mu / (1 - mu / L))
        assert (_smooth_pair(i, j, mu, L, gamma) - condition).is_zero()

    @pytest.mark.parametrize("theorem", list(_PAIRED))
    def test_convex_pair_is_subgradient_monotonicity_over_Q_gamma(self, theorem):
        _, (i, j) = _PAIRED[theorem]
        points = _points(PARAM_GAMMA)
        x, _, s, _ = points
        pair = _interp_convex(i, j, points) + _interp_convex(j, i, points)
        assert (pair - inner(s[i] - s[j], x[i] - x[j])).is_zero()

    def test_float_condition_evaluates_the_smooth_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            dim = int(rng.integers(1, 6))
            L = float(rng.uniform(0.5, 20))
            mu = L * float(rng.uniform(0, 0.95))
            gamma = F(float(rng.uniform(0.05, 2)) / L)
            # rank-deficient quadratics included: the identities hold pointwise
            d = rng.uniform(0, L, dim) * (rng.random(dim) < 0.8)
            f = DiagonalQuadratic(d, rng.normal(size=dim), ClassParams(0, L))
            point = {"k": rng.normal(size=dim) * 3, "k+1": rng.normal(size=dim) * 3, "*": rng.normal(size=dim)}
            grads = {label: f.grad(p) for label, p in point.items()}
            # s_{k+1} is whatever makes x_{k+1} the step's iterate: x_{k+1} = x_k - gamma (g_k + s_{k+1})
            vectors = {
                "x": point["k"] - point["*"], "gk": grads["k"], "gk1": grads["k+1"], "gs": grads["*"],
                "sk1": (point["k"] - point["k+1"]) / float(gamma) - grads["k"],
            }
            values = {name: float(rng.normal()) for name in FUNC_SYMBOLS}  # the f values cancel
            for (i, j), _ in _PAIRED.values():
                expected = evaluate_expr(_smooth_pair(i, j, F(mu), F(L), gamma), vectors, values)
                got = relaxed_distance_condition(f, ClassParams(mu, L), point[i], point[j])
                scale = 1 + float(np.sum((point[i] - point[j]) ** 2))
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-9 * scale * L)


def _inequality(ineq, mu, L, points) -> SymbolicExpr:
    """A certificate's inequality (kind, i, j) between two of `points`."""
    kind, i, j = ineq
    return _interp_smooth(i, j, mu, L, points) if kind == "smooth" else _interp_convex(i, j, points)


def _worst_case_gram(a, gamma):
    """The Gram data of one step of PGM on the 1-d a x^2/2 with h = 0, from x0 = 1 to x* = 0, in Q."""
    x1 = 1 - gamma * a
    vectors = {"x": [F(1)], "gk": [a], "gk1": [a * x1], "gs": [F(0)], "sk": [F(0)], "sk1": [F(0)]}
    values = {"fk": a / 2, "fk1": a * x1 * x1 / 2, "fs": F(0), "hk": F(0), "hk1": F(0), "hs": F(0)}
    return vectors, values


class TestCertificateTightOnWorstCase:
    """Each certificate is tight on the instance that attains its rate, in Q.

    At (mu, L) = (1, 3) the small step 1/3 and the large step 3/5 are
    attained by `quadratic_lower_bound`'s a x^2/2 with a = mu and a = L. On
    it the target rho^2 m_k - m_{k+1} is 0, every weighted interpolation
    slack is 0, and every SOS term is 0: the dual certificate and the primal
    instance close the gap. On these quadratics every interpolation slack is
    0 for both curvatures, so only the target and the SOS terms tell the
    attaining curvature from the other.
    """

    MU, L = F(1), F(3)
    STEPS = {Regime.SMALL_STEP: F(1, 3), Regime.LARGE_STEP: F(3, 5)}

    def _terms(self, theorem, regime, a):
        gamma = self.STEPS[regime]
        weighted, target, sos = _CERTIFICATES[theorem](regime, self.MU, self.L, gamma)
        data, points = _worst_case_gram(a, gamma), _points(gamma)
        slacks = {
            name: lam * gram_value(_inequality(ineq, self.MU, self.L, points), *data) for name, lam, ineq in weighted
        }
        squares = {name: coeff * gram_value(norm_sq(comb), *data) for name, coeff, comb in sos}
        return gram_value(target(points), *data), slacks, squares

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_every_term_vanishes_on_the_attaining_quadratic(self, theorem, regime):
        gamma = self.STEPS[regime]
        assert _regimes(self.MU, self.L, gamma) == [regime]
        a = F(quadratic_lower_bound(ClassParams(float(self.MU), float(self.L)), float(gamma)).problem.f.a)
        assert a == {Regime.SMALL_STEP: self.MU, Regime.LARGE_STEP: self.L}[regime]
        target, slacks, squares = self._terms(theorem, regime, a)
        assert target == 0
        assert set(slacks.values()) == {0} and set(squares.values()) == {0}

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_the_other_curvature_misses_the_rate(self, theorem, regime):
        other = {Regime.SMALL_STEP: self.L, Regime.LARGE_STEP: self.MU}[regime]
        target, slacks, squares = self._terms(theorem, regime, other)
        assert target != 0 and set(slacks.values()) == {0}
        assert target == sum(slacks.values()) + sum(squares.values())  # the certificate's identity, in Q
        if (theorem, regime) == ("distance", Regime.SMALL_STEP):
            assert target == F(4, 9)  # rho^2 = (1 - gamma mu)^2 = 4/9, and x_1 = 1 - 3/3 = 0


class TestSignProof:
    """Each multiplier and SOS coefficient is nonnegative on its regime, for all (mu, L, gamma).

    The domain is 0 <= mu < L and the regime's step interval (see
    `helpers.factor_signs`); `verify_*` reports this proven sign in the
    all-step-sizes mode, see the module docstring of `proxrates.certificate`.
    The combination entries have free sign and are not covered.
    """

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_every_coefficient_is_nonnegative(self, theorem, regime):
        signs = factor_signs(regime)
        weighted, _, sos = parametric_certificate(theorem, regime)
        terms = [(name, lam) for name, lam, _ in weighted] + [(name, coeff) for name, coeff, _ in sos]
        assert [name for name, _ in terms] == _TERM_NAMES[theorem]
        for name, value in terms:
            sign, reason = coefficient_sign(value, signs)
            assert sign == 1, f"{theorem}, {regime.value}, {name}: sign {sign}, {reason}"

    def test_factor_signs_from_the_endpoints(self):
        # 1: >= 0 on the regime's interval, -1: <= 0, None: not proven (the sign changes there)
        small = {name: 1 for name in SIGN_FACTORS} | {"alpha_large": None, "gamma*L - 1": None}
        large = {name: 1 for name in SIGN_FACTORS} | {"alpha_small": None, "1 - gamma*mu": None}
        assert factor_signs(Regime.SMALL_STEP) == small
        assert factor_signs(Regime.LARGE_STEP) == large | {"2 - gamma*(L+mu)": -1}

    def test_factor_signs_hold_at_points(self):
        # an independent check of the endpoint argument: evaluate each factor inside its interval
        rng = random.Random(13)
        for regime in Regime:
            signs = factor_signs(regime)
            for _ in range(40):
                L = F(rng.randint(1, 30), rng.randint(1, 7))
                mu = L * F(rng.randint(0, 99), 100)
                lo, hi = (F(0), 2 / (L + mu)) if regime is Regime.SMALL_STEP else (2 / (L + mu), 2 / L)
                gamma = lo + (hi - lo) * F(rng.randint(0, 64), 64)
                for name, sign in signs.items():
                    if sign is not None:
                        value = ParamRat(dict(SIGN_FACTORS[name])).eval(mu, L, gamma)
                        assert sign * value >= 0, (regime, name, mu, L, gamma)

    def test_the_proof_rejects_what_is_not_nonnegative(self):
        small = factor_signs(Regime.SMALL_STEP)
        lam = parametric_certificate("distance", Regime.SMALL_STEP)[0][0][1]  # 2 gamma (1 - gamma mu)
        assert coefficient_sign(lam, small)[0] == 1
        assert coefficient_sign(-lam, small)[0] == -1
        sign, reason = coefficient_sign(lam - F(1, 1000), small)
        assert sign is None and "both signs" in reason
        sign, reason = coefficient_sign(PARAM_GAMMA * PARAM_L - 1, small)
        assert sign is None and "gamma*L - 1" in reason
        sign, reason = coefficient_sign(1 / ParamRat(dict(PROOF_FACTORS["alpha_large"])), small)
        assert sign is None and "denominator factor alpha_large" in reason
        # a concave factor is proven only nonnegative, and only from nonnegative endpoint values
        assert factor_signs(Regime.LARGE_STEP)["alpha_small"] is None


class TestRateAtTheRegimeBoundary:
    """At gamma* = 2/(L+mu) both regimes certify the function-value rate ((L-mu)/(L+mu))^2, over Q(mu, L).

    `ParamRat` refuses to divide by L + mu, so the rate is not evaluated at
    gamma*. Instead (L+mu)^2 rho^2 - (L-mu)^2 is shown to be beta = 2 -
    gamma*(L+mu) times a polynomial, and beta vanishes exactly at gamma*. The
    exact line search's bound follows: see `engine.run_exact_line_search`.
    """

    @pytest.mark.parametrize("regime", list(Regime))
    def test_rho_squared_is_the_optimal_rate(self, regime):
        _, target, _ = parametric_certificate("funcvalue", regime)
        rho_sq = target(_points(PARAM_GAMMA)).lin_coeff("fk")  # the certified F(x_{k+1}) - F* <= rho^2 (F(x_k) - F*)
        excess = (PARAM_L + PARAM_MU) ** 2 * rho_sq - (PARAM_L - PARAM_MU) ** 2
        assert (excess.d, excess.mono, any(excess.fac)) == (1, (0, 0, 0), False)  # a polynomial
        quotient = _poly_div_exact(excess.num, SIGN_FACTORS["2 - gamma*(L+mu)"])
        assert quotient is not None and quotient
        rng = random.Random(17)
        for _ in range(20):
            L = F(rng.randint(1, 30), rng.randint(1, 7))
            mu = L * F(rng.randint(1, 99), 100)
            report = verify_funcvalue(mu, L, 2 / (L + mu), regime)
            assert report.verified and report.multipliers[3].value == ((L - mu) / (L + mu)) ** 2

    def test_the_boundary_is_in_both_proven_intervals(self):
        # small [0, gamma*] and large [gamma*, 2/L]: TestSignProof proves every coefficient on each closed interval
        g_star = ({(0, 0, 0): 2}, {(0, 1, 0): 1, (1, 0, 0): 1})
        assert STEP_INTERVALS[Regime.SMALL_STEP][1] == g_star == STEP_INTERVALS[Regime.LARGE_STEP][0]
        for mu, L in [(F(1), F(3)), (F(1), F(10)), (F(1, 7), F(2))]:
            assert _regimes(mu, L, 2 / (L + mu)) == [Regime.SMALL_STEP, Regime.LARGE_STEP]

    def test_alpha_is_its_named_factor(self):
        # the scalings the certificates divide by are the hand-expanded factors of the proof
        for name, alpha in [("alpha_small", alpha_small), ("alpha_large", alpha_large)]:
            assert alpha(PARAM_MU, PARAM_L, PARAM_GAMMA) == ParamRat(dict(PROOF_FACTORS[name]))


# ------------------------------------------------ the fast path against expansion


def _outcome(theorem, mu, L, gamma, regime, mutate=None, expand=False):
    """The report's JSON text, key order included, or the exception's type and message."""
    try:
        if expand:
            rep = expanded_report(theorem, mu, L, gamma, regime, mutate)
        else:
            rep = VERIFIERS[theorem](mu, L, gamma, regime, _mutate=mutate)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return json.dumps(rep.to_json_dict())


def _seeded_pairs(n=40, seed=11):
    rng = random.Random(seed)
    pairs = [(F(0), F(1)), (F(0), F(7, 3))]
    while len(pairs) < n:
        L = F(rng.randint(1, 12), rng.randint(1, 4))
        pairs.append((L * F(rng.randint(0, 9), 10), L))
    return pairs


def _agree(*args, **kwargs):
    fast, slow = _outcome(*args, **kwargs), _outcome(*args, **kwargs, expand=True)
    assert fast == slow, args
    return fast


class TestFastPathMatchesExpansion:
    """verify_* (no expansion unless its own term is mutated) against the forced expansion."""

    def test_default_grid(self):
        for mu, L, gamma, regime in default_grid():
            for theorem in VERIFIERS:
                assert json.loads(_agree(theorem, mu, L, gamma, regime))["verified"]

    def test_seeded_pairs_symbolic(self):
        pairs = _seeded_pairs()
        outcomes = [_agree(t, mu, L, gamma_symbol(), r) for mu, L in pairs for r in Regime for t in VERIFIERS]
        assert len(outcomes) == 240
        assert sum(isinstance(o, tuple) for o in outcomes) == 2 * sum(mu == 0 for mu, _ in pairs)

    def test_seeded_pairs_exact_steps(self):
        rng = random.Random(5)
        outcomes = []
        for mu, L in _seeded_pairs():
            g_star, share = 2 / (L + mu), F(rng.randint(1, 999), 1000)
            steps = [F(0), g_star * share, g_star, g_star + (2 / L - g_star) * share, 2 / L * (1 + share)]
            for gamma in rng.sample(steps, 3):
                outcomes += [_agree(t, mu, L, gamma, r) for r in Regime for t in VERIFIERS]
        assert any(isinstance(o, tuple) for o in outcomes) and any(isinstance(o, str) for o in outcomes)

    @pytest.mark.parametrize("delta", [F(1, 1000), F(-3, 7)])
    def test_every_mutation_name(self, delta):
        names = sorted({n for t in VERIFIERS for n in _TERM_NAMES[t]})
        assert len(names) == 11
        points = [(F(1), F(2), F(1, 2), Regime.SMALL_STEP), (F(3), F(10), F(1, 6), Regime.LARGE_STEP),
                  (F(1, 2), F(3), gamma_symbol(), Regime.SMALL_STEP)]
        for mu, L, gamma, regime in points:
            for theorem in VERIFIERS:
                for name in names:
                    doc = json.loads(_agree(theorem, mu, L, gamma, regime, (name, delta)))
                    assert doc["residual_zero"] is (name not in _TERM_NAMES[theorem])

    def test_residual_expanded_only_for_an_own_mutated_term(self, monkeypatch):
        from proxrates import certificate

        calls = []
        for fn in ("_interp_smooth", "_interp_convex"):
            original = getattr(certificate, fn)
            monkeypatch.setattr(certificate, fn, lambda *a, _f=original: calls.append(1) or _f(*a))
        point = (F(1), F(3), F(1, 3), Regime.SMALL_STEP)
        assert verify_funcvalue(*point).verified and verify_distance(*point, _mutate=("lambda4", 1)).verified
        assert calls == []
        assert not verify_funcvalue(*point, _mutate=("lambda4", 1)).verified
        assert len(calls) == 5

    def test_residual_certificate_rejects_a_zero_step(self):
        with pytest.raises(ValueError, match="gamma"):
            verify_residual(1, 3, 0, Regime.SMALL_STEP)
        assert verify_distance(1, 3, 0, Regime.SMALL_STEP).verified
        assert verify_funcvalue(1, 3, 0, Regime.SMALL_STEP).verified


class TestPointsBuiltOnce:
    """An expanded residual builds the points of its description once; the unmutated path builds none."""

    POINTS = [(F(1), F(3), F(1, 3), Regime.SMALL_STEP), (F(1), F(3), F(3, 5), Regime.LARGE_STEP)]
    POINTS += [(F(1), F(3), gamma_symbol(), regime) for regime in Regime]

    @pytest.mark.parametrize("theorem", list(VERIFIERS))
    def test_one_build_per_expanded_residual(self, monkeypatch, theorem):
        from proxrates import certificate

        calls, build = [], certificate._points
        monkeypatch.setattr(certificate, "_points", lambda *gammas: calls.append(gammas) or build(*gammas))
        other = next(n for t in VERIFIERS for n in _TERM_NAMES[t] if n not in _TERM_NAMES[theorem])
        for mu, L, gamma, regime in self.POINTS:
            for name in _TERM_NAMES[theorem]:
                calls.clear()
                assert not VERIFIERS[theorem](mu, L, gamma, regime, _mutate=(name, F(1, 1000))).residual_zero
                assert calls == [(gamma,)], (regime, gamma, name)
            calls.clear()
            assert VERIFIERS[theorem](mu, L, gamma, regime).verified
            assert VERIFIERS[theorem](mu, L, gamma, regime, _mutate=(other, F(1, 1000))).verified
            assert calls == [], (regime, gamma)


# ------------------------------------------------------------ frozen output


# SHA-256 digests of certificate outputs that must stay byte-identical.
# `certify --out` bytes over the default grid, per --theorem:
GRID_DIGESTS = {
    "all": "da80b2af2add1f59aa51b085ee5f920671167c621e9448801945ba36c8c3c68f",
    "distance": "d960b062913a0d647bd439cd401e889880f5483914a4ab02649ae820935b4f5a",
    "residual": "924ea66d9539f700f272c8166a4b785dcfc95101a442f2ba2f4a9a8a623db345",
    "funcvalue": "28a01a45637ce442a4d7c1055fd78e40de23a99cef68b8d2b6539e012b2e88cb",
}
# `certify --mu 1 --L 3 --gamma 1/3 --selftest-mutate NAME --out` bytes (all theorems, delta 1/1000):
MUTATION_DIGESTS = {
    "grad_combination": "b113ae156bf7ea85babe99198866945976c9e500fc6fdc70daba43d49ca871fb",
    "lambda0": "9a7b302e21ebd4dd57abc0f3df98b495fefac15613d5d0f630afbbc4cc2595ff",
    "lambda1": "10d5a4f48f6efcbeb3325a67718500bc61b670ca0590e193401b5e24f318b824",
    "lambda2": "06c6cfff78dae805672a572ff1b91ecd4555bfd53291254f9f3b0551c58e9427",
    "lambda3": "8327dc4cf52501f10263a2428314dcadfc6eaf9ea634d5b4f8eddd3ca3bade3d",
    "lambda4": "7946f1edc5b353fbb4fb6cc20c54bab48293af7a79eade2ed26d314f8a6f0ff0",
    "point_combination": "686f324e4066014e46c89098e1fe9af2d5e6f4f7045b3730a453b5f430353f78",
    "prox_residual": "c1af9aea14da285d2ed591a4829263461ef569b741e39d233ebe935d102d0f38",
    "regime": "146b135ee16044889d33f11420faf99cef69bba2a92f7304e25b51b4b6f291b6",
    "subgrad_change": "a37ae62b64161fae385c5a675c116ce4c4cf48c1b6bd13807f23535b2095b505",
    "subgrad_combination": "d18ebd396140567440e8282cdd3e8456a6e871c0b06aa4aba381f8c5184f5120",
}
# The same bytes at a large step (gamma = 3/5) and at the regime boundary 2/(L+mu) = 1/2, where
# every certificate is built in both regimes, per gamma and NAME:
MUTATION_DIGESTS_OTHER_STEPS = {
    "3/5": {
        "grad_combination": "dc2d81f0ef783fe607bb24fb1be186663385bfac20707740dc4c23adee0020a9",
        "lambda0": "039661fdab8c836882b8995e97266bd369bc6620615084431c4d1c32ca2eae02",
        "lambda1": "0707ba5e3bdfe4c588418d5a321c66f48bc1c1efe40c9798302cdeb2fe4b191b",
        "lambda2": "b553fe4feee0d4675e18244a488ccda4cb7c208a4f9b0ffa94d2533db25ccdc8",
        "lambda3": "0db5d676a3d358e824170ada5d5837a88bcdb673b7b1eab8ef043df485f3be90",
        "lambda4": "0d7634fd2fb9358386bd818916b83d9c085d53ec53ce4877d9902c83af0b86e9",
        "point_combination": "a5ad4665e9d377c36d16e8f6c07e668fe2c6d6156882f1f1967386f49b5884a5",
        "prox_residual": "23c036e807e0f2acf1598589aa786c674f6615a85855f7bae3b23bb2f58d8883",
        "regime": "9ecfb8bc4a945ced364357ecad5f0444e2efc1f9394a56deb34195c3eaa4a92f",
        "subgrad_change": "2497421605dc1934195df77e0121d87bea9315ccf2ef6b13427786407fafa623",
        "subgrad_combination": "3bd4382771e6f26a18676a23d21a9327f04925f1c2878c005d44a5dc8f0a9bc4",
    },
    "1/2": {
        "grad_combination": "e1d532640329da00e0330403967d10b02961caf1f17b78b8ee4932f5a96ea586",
        "lambda0": "04d9a0b8a2a610329fcc33bb3bd4ca50d872d03f044e6adf6e86dceb0ab6b7b4",
        "lambda1": "90879c83345dea7e1711b21d64b0c54f4a4cc2a4cf57516b776055fe0d2b53c4",
        "lambda2": "686db6991f749acb5ac6bb25ebd3061125c9ca9d9be584816a4b656b284f61ac",
        "lambda3": "d32735250507993a8e35e7dea6b89ea528a8fa41d66d0d797b81296357556d1b",
        "lambda4": "af846320a4bc68f9a9633e8d365e2e3ddef0f0a726dc800e2ea6d6876f2ae533",
        "point_combination": "e001e912a5434ea25509ff32d31e9d84f01f33ef104e9f43f0c70d0d9a34e527",
        "prox_residual": "5da8f61922fb0ddaf8c11087e81f01817239c783ceca75eea3f38c4f75c41202",
        "regime": "777eaacd5692f1e28d6a76cae4c35acb90a7f635d1ebbf2c0641ea6a39ffc50e",
        "subgrad_change": "12acbaa404ba4a55fbf99ca4c1b013d6726175c6e218327963378ce4f3ca83c4",
        "subgrad_combination": "8746376fa5ce6d07e2549389ad857daa531d720e6ca0a30093067c7b1713267b",
    },
}
# The unmutated all-step-sizes reports at the distinct seeded pairs, in sorted order, one
# `json.dumps(to_json_dict())` text per line (or "ValueError: message"), per theorem and regime:
SYMBOLIC_DIGESTS = {
    ("distance", "small_step"): "42af8b3866bf6181ad88ac6e8b95be8341eda800804e00567af3074774d4bd2b",
    ("distance", "large_step"): "09546656e7ba78df7e2062757f7af5b0ff9c9f795d8a1306b11f54e71abce80f",
    ("residual", "small_step"): "bb126a86643f29dac2347456de5d991b4cb657d974da332db6bd91ea03d10745",
    ("residual", "large_step"): "bd1f2cc9102d37b772d2b7e5598ed0e38a5e6fb724a612491a2dcb9536b7351d",
    ("funcvalue", "small_step"): "d416316e8d7f652446009f8ecca8cf22fae4da977a577b309bc08d78c3669ac9",
    ("funcvalue", "large_step"): "39533fd503882974b21ee8829f395cbbbfb92132e392cec3b63c3a1440e788a5",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestFrozenOutput:
    def _certify(self, tmp_path, argv) -> tuple[int, bytes]:
        out = tmp_path / "out.json"
        code = main(["certify", *argv, "--out", str(out)])
        return code, out.read_bytes()

    @pytest.mark.parametrize("theorem", list(GRID_DIGESTS))
    def test_default_grid(self, tmp_path, theorem):
        code, data = self._certify(tmp_path, ["--theorem", theorem])
        assert code == 0 and _sha256(data) == GRID_DIGESTS[theorem]

    @pytest.mark.parametrize("name", list(MUTATION_DIGESTS))
    def test_every_mutation_name(self, tmp_path, name):
        code, data = self._certify(tmp_path, ["--mu", "1", "--L", "3", "--gamma", "1/3", "--selftest-mutate", name])
        assert code == 1 and _sha256(data) == MUTATION_DIGESTS[name]

    @pytest.mark.parametrize("name", list(MUTATION_DIGESTS))
    @pytest.mark.parametrize("gamma", list(MUTATION_DIGESTS_OTHER_STEPS))
    def test_every_mutation_name_at_a_large_step_and_the_boundary(self, tmp_path, gamma, name):
        code, data = self._certify(tmp_path, ["--mu", "1", "--L", "3", "--gamma", gamma, "--selftest-mutate", name])
        assert code == 1 and _sha256(data) == MUTATION_DIGESTS_OTHER_STEPS[gamma][name]

    def test_symbolic_reports(self):
        pairs = sorted(set(_seeded_pairs()))
        assert len(pairs) == 37
        for (theorem, regime), digest in SYMBOLIC_DIGESTS.items():
            texts = []
            for mu, L in pairs:
                outcome = _outcome(theorem, mu, L, gamma_symbol(), Regime(regime))
                texts.append(outcome if isinstance(outcome, str) else f"{outcome[0].__name__}: {outcome[1]}")
            assert _sha256("\n".join(texts).encode()) == digest, (theorem, regime)


class TestErrorPaths:
    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(lambda: verify_distance(2, 1, F(1, 3), Regime.SMALL_STEP),
                         "certificates require exact rationals with 0 <= mu < L", id="verify-mu-above-L"),
            pytest.param(lambda: numeric_spot_check(norm_sq(VecExpr({"x": 1})), 1, 3, F(1, 3), assignment="x"),
                         "assignment must be 'random' or 'trace'", id="spot-check-assignment"),
            pytest.param(lambda: verify_funcvalue(1, 3, F(7, 15), Regime.LARGE_STEP),
                         "degenerate step size: the alpha scaling vanishes", id="funcvalue-alpha-zero"),
            pytest.param(lambda: VecExpr({"y": 1}), "unknown basis vector 'y'", id="vec-name"),
            pytest.param(lambda: SymbolicExpr(lin={"fy": 1}), "unknown function symbol 'fy'", id="lin-name"),
            pytest.param(lambda: SymbolicExpr(gram={("x", "y"): 1}), "unknown basis pair", id="gram-name"),
        ],
    )
    def test_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
