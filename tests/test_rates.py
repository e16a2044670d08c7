
import math

import numpy as np
import pytest

from proxrates import (
    ClassParams,
    MeasureKind,
    MeasureTriple,
    Provenance,
    bound_lookup,
    classical_nontight_bound,
    contraction,
    optimal_step,
)
from proxrates.measures import check_proposition
from proxrates.rates import BOUND_TABLES, CONVERSIONS, rate_branch

from helpers import REFERENCE_CONVERTED_CELLS, iterate_recurrence, reference_check_proposition

M = MeasureKind


class TestContraction:
    def test_optimal_step_value(self):
        rate = contraction(ClassParams(1, 10), 2 / 11)
        assert rate.rho == pytest.approx(9 / 11, rel=1e-15)
        assert rate.rho_squared == rate.rho * rate.rho

    def test_zero_step(self):
        assert contraction(ClassParams(1, 10), 0.0).rho == 1.0

    def test_short_step(self):
        # at gamma = 1/10 the terms are |1-1| and |1-1/10|
        assert contraction(ClassParams(1, 10), 0.1).rho == pytest.approx(0.9, abs=1e-15)

    @pytest.mark.parametrize("mu,L", [(1.0, 10.0), (0.5, 3.0), (0.1, 1.0)])
    def test_branch_formulas(self, mu, L):
        params = ClassParams(mu, L)
        g_star = 2 / (L + mu)
        for g in np.linspace(0, g_star, 17):
            assert contraction(params, g).rho == pytest.approx(1 - mu * g, abs=1e-14)
            if g < g_star * (1 - 1e-9):  # at the boundary either label is right
                assert rate_branch(params, g) == "mu"
        for g in np.linspace(g_star, 2 / L, 17)[1:]:
            assert contraction(params, g).rho == pytest.approx(L * g - 1, abs=1e-14)
        # branches agree at the boundary
        assert (1 - mu * g_star) == pytest.approx(L * g_star - 1, abs=1e-14)

    @pytest.mark.parametrize("mu,L", [(1.0, 10.0), (0.2, 7.0)])
    def test_minimized_at_optimal_step(self, mu, L):
        params = ClassParams(mu, L)
        g_star, rate_star = optimal_step(params)
        rng = np.random.default_rng(3)
        for g in rng.uniform(0, 2 / L, 50):
            if abs(g - g_star) > 1e-12:
                assert contraction(params, g).rho > rate_star.rho


def test_geometric_overflow_names_k():
    rate = contraction(ClassParams(1, 10), 0.5)
    assert rate.geometric(250) == 16.0**250
    with pytest.raises(ValueError, match="k = 256"):
        rate.geometric(256)


class TestOptimalStep:
    def test_standard(self):
        g, rate = optimal_step(ClassParams(1, 10))
        assert g == pytest.approx(2 / 11, rel=1e-15)
        assert rate.rho == pytest.approx(9 / 11, rel=1e-15)
        assert rate.rho_squared == pytest.approx((9 / 11) ** 2, rel=1e-15)

    def test_degenerate_class(self):
        g, rate = optimal_step(ClassParams(5, 5))
        assert g == pytest.approx(0.2)
        assert rate.rho == 0.0

    def test_smooth_convex_limit(self):
        g, rate = optimal_step(ClassParams(0, 1))
        assert g == 2.0 and rate.rho == 1.0


class TestClassParams:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            ClassParams(2.0, 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ClassParams(-1.0, 1.0)

    def test_strong_convexity_gate(self):
        with pytest.raises(ValueError):
            ClassParams(0.0, 1.0).require_strongly_convex()


class TestBoundLookup:
    def test_diagonal_proven_tight(self):
        params = ClassParams(1, 10)
        b = bound_lookup(M.DISTANCE_SQ, M.DISTANCE_SQ, params, 2 / 11, 3)
        assert b.value == pytest.approx((9 / 11) ** 6, rel=1e-14)
        assert b.provenance is Provenance.PROVEN_TIGHT

    def test_diagonal_matches_contraction_power(self):
        params = ClassParams(0.5, 4.0)
        for g in (0.1, 0.25, 2 / 4.5, 0.49):
            rate = contraction(params, g)
            for m in M:
                assert bound_lookup(m, m, params, g, 7).value == rate.geometric(7)

    def test_conjectured_dist_to_gap(self):
        # independent oracle: iterate the constrained-quadratic recurrence with
        # the gap-maximizing slope and evaluate the final gap directly
        mu, L, N, x0 = 1.0, 2.0, 2, 1.0
        q = 1 - mu / L
        c = mu * x0 / (q ** (-2 * N) - 1)
        xs = iterate_recurrence(mu, L, c, x0, N)
        oracle_gap = 0.5 * mu * xs[N] ** 2 + c * xs[N]
        b = bound_lookup(M.DISTANCE_SQ, M.FUNC_GAP, ClassParams(mu, L), 1 / L, N, conjectured=True)
        assert b.value * x0**2 == pytest.approx(oracle_gap, rel=1e-12)
        assert b.value == pytest.approx(1 / 30, rel=1e-12)
        assert b.provenance is Provenance.CONJECTURED_TIGHT

    def test_conjectured_cells_at_1_over_L(self):
        params = ClassParams(1, 2)
        rho = 0.5
        k = 3
        b1 = bound_lookup(M.DISTANCE_SQ, M.RESIDUAL_GRAD_SQ, params, 0.5, k, conjectured=True)
        assert b1.value == pytest.approx(1 / (rho**-k - 1) ** 2, rel=1e-12)
        b2 = bound_lookup(M.FUNC_GAP, M.RESIDUAL_GRAD_SQ, params, 0.5, k, conjectured=True)
        assert b2.value == pytest.approx(2 / (rho ** (-2 * k) - 1), rel=1e-12)

    def test_conjectured_cells_at_mu_equal_L(self):
        # rho = 1 - mu/L = 0: one step of 1/L reaches the optimum
        for L in (1.0, 2.0, 7.5):
            for cell in ((M.DISTANCE_SQ, M.FUNC_GAP), (M.DISTANCE_SQ, M.RESIDUAL_GRAD_SQ),
                         (M.FUNC_GAP, M.RESIDUAL_GRAD_SQ)):
                for k in (1, 3):
                    b = bound_lookup(*cell, ClassParams(L, L), 1 / L, k, conjectured=True)
                    assert b.value == 0.0
                    assert b.provenance is Provenance.CONJECTURED_TIGHT

    def test_proven_offdiagonal_cells(self):
        params = ClassParams(2, 5)
        g, k = 0.2, 4
        decay = contraction(params, g).geometric(k)
        cases = {
            (M.FUNC_GAP, M.DISTANCE_SQ): decay * 2 / 2,
            (M.RESIDUAL_GRAD_SQ, M.DISTANCE_SQ): decay / 4,
            (M.RESIDUAL_GRAD_SQ, M.FUNC_GAP): decay / 4,
        }
        for cell, expected in cases.items():
            b = bound_lookup(*cell, params, g, k)
            assert b.value == pytest.approx(expected, rel=1e-14)
            assert b.provenance is Provenance.PROVEN_UPPER_TIGHT_SMALL_STEP

    def test_unbounded_cell(self):
        b = bound_lookup(M.FUNC_GAP, M.DISTANCE_SQ, ClassParams(0, 1), 1.0, 5)
        assert b.is_unbounded

    def test_smooth_convex_limit_values(self):
        params = ClassParams(0, 2)
        g, k = 0.5, 4
        assert bound_lookup(M.DISTANCE_SQ, M.FUNC_GAP, params, g, k).value == pytest.approx(2 / 16)
        assert bound_lookup(M.DISTANCE_SQ, M.RESIDUAL_GRAD_SQ, params, g, k).value == pytest.approx(4 / 16)
        assert bound_lookup(M.FUNC_GAP, M.RESIDUAL_GRAD_SQ, params, g, k).value == pytest.approx(0.5)
        for m in M:
            diag = bound_lookup(m, m, params, g, k)
            assert diag.value == 1.0
            assert diag.provenance is Provenance.PROVEN_TIGHT
        assert bound_lookup(M.RESIDUAL_GRAD_SQ, M.FUNC_GAP, params, g, k).is_unbounded

    def test_limit_of_conjectured_matches_smooth_convex_cell(self):
        # the dist->gap value converges to L/(4k) as mu -> 0 at gamma = 1/L
        L, k = 1.0, 5
        target = L / (4 * k)
        errors = []
        for mu in (1e-2, 1e-4, 1e-6):
            val = bound_lookup(
                M.DISTANCE_SQ, M.FUNC_GAP, ClassParams(mu, L), 1 / L, k, conjectured=True
            ).value
            errors.append(abs(val - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] / errors[0] == pytest.approx(1e-2, rel=0.2)

    def test_rejections(self):
        params = ClassParams(1, 2)
        with pytest.raises(ValueError):
            bound_lookup(M.DISTANCE_SQ, M.DISTANCE_SQ, params, 0.5, 0)
        with pytest.raises(ValueError):
            bound_lookup(M.DISTANCE_SQ, M.DISTANCE_SQ, ClassParams(0, 2), 0.3, 1)
        with pytest.raises(ValueError):  # no proven bound without the conjectured flag
            bound_lookup(M.DISTANCE_SQ, M.FUNC_GAP, params, 0.5, 1)
        with pytest.raises(ValueError):  # conjectured values only exist at gamma = 1/L
            bound_lookup(M.DISTANCE_SQ, M.FUNC_GAP, params, 0.4, 1, conjectured=True)
        with pytest.raises(ValueError):  # outside the proven step-size range
            bound_lookup(M.DISTANCE_SQ, M.DISTANCE_SQ, params, 1.5, 1)

    @pytest.mark.parametrize("gamma", [float("nan"), -0.5, -1e-13])
    def test_step_outside_the_range_rejected(self, gamma):
        # a NaN compares False on both sides of the range
        with pytest.raises(ValueError, match="only proven for 0 <= gamma <= 2/L"):
            bound_lookup(M.DISTANCE_SQ, M.DISTANCE_SQ, ClassParams(1, 2), gamma, 1)

    @pytest.mark.parametrize(
        "mu,k,init,final",
        [
            (0.5, 600, M.DISTANCE_SQ, M.FUNC_GAP),  # expm1 overflows
            (0.5, 1200, M.DISTANCE_SQ, M.RESIDUAL_GRAD_SQ),
            (1e-300, 5, M.DISTANCE_SQ, M.RESIDUAL_GRAD_SQ),  # the square underflows to 0
            (1e-300, 5, M.RESIDUAL_GRAD_SQ, M.DISTANCE_SQ),
            (1e-160, 5, M.RESIDUAL_GRAD_SQ, M.DISTANCE_SQ),  # 1/mu^2 rounds to inf, not "unbounded"
        ],
    )
    def test_cell_outside_the_float_range_names_cell_and_k(self, mu, k, init, final):
        with pytest.raises(ValueError, match=f"{init.value} -> {final.value} .* float range at k = {k}"):
            bound_lookup(init, final, ClassParams(mu, 1.0), 1.0, k, conjectured=True)


class TestClassicalBound:
    def test_func_gap_constant(self):
        b = classical_nontight_bound(ClassParams(1, 10), 2 / 11, 1, M.FUNC_GAP)
        assert b.value == pytest.approx(10 * (9 / 11) ** 2, rel=1e-14)
        assert b.provenance is Provenance.CLASSICAL_NOT_TIGHT

    def test_degenerate_class_drops_constant(self):
        b = classical_nontight_bound(ClassParams(3, 3), 0.2, 1, M.FUNC_GAP)
        assert b.value == pytest.approx(contraction(ClassParams(3, 3), 0.2).rho_squared)

    def test_k_zero_keeps_constant(self):
        b = classical_nontight_bound(ClassParams(1, 10), 2 / 11, 0, M.FUNC_GAP)
        assert b.value == 10.0

    def test_residual_is_unsquared(self):
        params = ClassParams(1, 10)
        b = classical_nontight_bound(params, 0.1, 3, M.RESIDUAL_GRAD_SQ)
        assert b.value == pytest.approx(10 * 0.9**3, rel=1e-14)

    def test_rejections(self):
        with pytest.raises(ValueError):
            classical_nontight_bound(ClassParams(0, 1), 0.5, 1, M.FUNC_GAP)
        with pytest.raises(ValueError):
            classical_nontight_bound(ClassParams(1, 2), 0.5, 1, M.DISTANCE_SQ)

    @pytest.mark.parametrize("measure", [M.FUNC_GAP, M.RESIDUAL_GRAD_SQ])
    def test_overflow_names_k(self, measure):
        # gamma = 0.5 > 2/L: rho = 4, and 16^400 is beyond a float
        with pytest.raises(ValueError, match="k = 800"):
            classical_nontight_bound(ClassParams(1, 10), 0.5, 800, measure)
        assert classical_nontight_bound(ClassParams(1, 10), 0.5, 250, measure).value > 1e150

    def test_not_even_a_contraction_for_small_k(self):
        # the L/mu constant exceeds 1 for few iterations, unlike the tight bound
        b = classical_nontight_bound(ClassParams(1, 100), 1 / 100, 1, M.FUNC_GAP)
        assert b.value > 1.0


class TestErrorPaths:
    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(lambda: ClassParams(math.nan, 1.0), "mu and L must be finite", id="nan-mu"),
            pytest.param(lambda: ClassParams(0.0, math.inf), "mu and L must be finite", id="inf-L"),
            pytest.param(lambda: ClassParams(0.0, 0.0), "L must be positive, got 0.0", id="zero-L"),
            pytest.param(lambda: ClassParams(-2.0, -1.0), "L must be positive, got -1.0", id="negative-L"),
            pytest.param(
                lambda: classical_nontight_bound(ClassParams(1, 10), 0.1, -1, M.FUNC_GAP),
                "iteration count k must be >= 0",
                id="classical-negative-k",
            ),
        ],
    )
    def test_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _outcome(fn, *args):
    """fn(*args) as comparable data: each float by its bits (-0.0 and NaN included), or the exception's type."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    if isinstance(out, float):
        return out.hex()
    return [(name, slack.hex()) for name, slack in out]


class TestConversionsStatedOnce:
    """Each strong-convexity conversion lives in `rates.CONVERSIONS`; the table and `check_proposition` read it.

    Both match the conversions written inline (`helpers.REFERENCE_CONVERTED_CELLS`,
    `helpers.reference_check_proposition`) bit for bit, and a conversion past the float range is a
    ValueError naming it where the inline route divided by zero or returned NaN.
    """

    def test_every_proven_upper_cell_is_contraction_then_one_conversion(self):
        for name, table in BOUND_TABLES.items():
            for cell, entry in table.items():
                if entry.provenance is Provenance.PROVEN_UPPER_TIGHT_SMALL_STEP:
                    assert cell in CONVERSIONS, (name, cell)
        upper = Provenance.PROVEN_UPPER_TIGHT_SMALL_STEP
        assert {cell for cell, entry in BOUND_TABLES["global"].items() if entry.provenance is upper} == set(CONVERSIONS)

    def test_cells_match_the_inline_conversions(self):
        cases = 0
        for mu in (1e-300, 1e-170, 1e-160, 1e-9, 0.1, 0.5, 1.0, 3.0):
            for L in (1.0, 3.0, 10.0, 1e3):
                if mu > L:
                    continue
                for gamma in (0.0, 0.3 / L, 1.0 / L, 2.0 / (L + mu), 2.0 / L):
                    for k in (1, 2, 5, 37, 600):
                        for cell, reference in REFERENCE_CONVERTED_CELLS.items():
                            want = _outcome(reference, mu, L, gamma, k)
                            for table in ("global", "step_1_over_L"):
                                assert _outcome(BOUND_TABLES[table][cell].factor, mu, L, gamma, k) == want
                            cases += 1
        assert cases > 1000

    def test_check_proposition_matches_the_inline_conversions(self):
        rng = np.random.default_rng(20)

        def magnitude(lo, hi, sign=1.0):
            """0.0, -0.0 or a log-uniform magnitude in [10^lo, 10^hi], as a Python float times sign."""
            u = rng.random()
            return sign * (0.0 if u < 0.1 else -0.0 if u < 0.2 else 10.0 ** float(rng.uniform(lo, hi)))

        mus = (1e-170, 1e-160, 1e-20, 0.01, 0.5, 1.0, 7.0)
        raised = 0
        for _ in range(4000):
            params = ClassParams(mus[rng.integers(len(mus))], 10.0)
            gap_sign = 1.0 if rng.random() < 0.5 else -1.0
            residual = 1e308 if rng.random() < 0.05 else magnitude(-40, 40)
            triple = MeasureTriple(magnitude(-40, 40), magnitude(-40, 40, gap_sign), residual)
            floor_sign = 1.0 if rng.random() < 0.5 else -1.0
            floors = (None, MeasureTriple(magnitude(-60, 0), magnitude(-60, 0, floor_sign), magnitude(-60, 0)))[
                rng.integers(2)
            ]
            want = _outcome(reference_check_proposition, triple, params, floors)
            got = _outcome(check_proposition, triple, params, floors)
            if want is ZeroDivisionError or any(slack == "nan" for _, slack in want):
                assert got is ValueError
                raised += 1
            else:
                assert got == want
        assert 100 < raised < 2000
