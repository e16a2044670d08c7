
import numpy as np
import pytest

from proxrates import (
    ClassParams,
    MeasureKind,
    Provenance,
    bound_lookup,
    classical_nontight_bound,
    contraction,
    optimal_step,
)
from proxrates.rates import rate_branch

from helpers import iterate_recurrence

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

    def test_not_even_a_contraction_for_small_k(self):
        # the L/mu constant exceeds 1 for few iterations, unlike the tight bound
        b = classical_nontight_bound(ClassParams(1, 100), 1 / 100, 1, M.FUNC_GAP)
        assert b.value > 1.0
