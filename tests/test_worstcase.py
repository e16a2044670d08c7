import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from proxrates import (
    ClassParams,
    MeasureKind,
    NonnegIndicator,
    ScaledSqNorm,
    Zero,
    mixed_measure_instance,
    bound_lookup,
    check_interpolation,
    contraction,
    els_worst_quadratic,
    optimal_step,
    quadratic_lower_bound,
    run,
    run_exact_line_search,
    unbounded_family,
)
from proxrates.worstcase import (
    DIST_TO_FUNCGAP,
    DIST_TO_RESIDUAL,
    FUNCGAP_TO_RESIDUAL,
)

from helpers import (
    els_exact,
    iterate_recurrence,
    mixed_slope_exact,
    pgm_exact,
    reference_mixed_measure_instance,
    reference_unbounded_family,
    step_1_over_L_cell_exact,
)

M = MeasureKind
MIXED = (DIST_TO_FUNCGAP, DIST_TO_RESIDUAL, FUNCGAP_TO_RESIDUAL)
EPS = Fraction(float(np.finfo(float).eps))


class TestQuadraticLowerBound:
    def test_short_step_picks_small_curvature(self):
        spec = quadratic_lower_bound(ClassParams(1, 10), 0.05, N=1)
        assert spec.problem.f.a == 1.0
        trace = run(spec.problem, spec.gamma, spec.x0, 1, s0=spec.s0)
        ratio = trace.measure(M.DISTANCE_SQ, 1) / trace.measure(M.DISTANCE_SQ, 0)
        assert ratio == pytest.approx(0.9025, rel=1e-14)

    def test_long_step_picks_large_curvature(self):
        spec = quadratic_lower_bound(ClassParams(1, 10), 0.19, N=1)
        assert spec.problem.f.a == 10.0
        trace = run(spec.problem, spec.gamma, spec.x0, 1, s0=spec.s0)
        ratio = trace.measure(M.DISTANCE_SQ, 1) / trace.measure(M.DISTANCE_SQ, 0)
        assert ratio == pytest.approx(0.81, rel=1e-14)

    def test_boundary_step_matches_optimal_rate(self):
        params = ClassParams(1, 10)
        gamma, rate = optimal_step(params)
        spec = quadratic_lower_bound(params, gamma, N=1)
        trace = run(spec.problem, spec.gamma, spec.x0, 1, s0=spec.s0)
        ratio = trace.measure(M.FUNC_GAP, 1) / trace.measure(M.FUNC_GAP, 0)
        assert ratio == pytest.approx(rate.rho_squared, rel=1e-13)

    @pytest.mark.parametrize("gamma_frac", [0.1, 0.5, 1.0, 1.6, 2.0])
    def test_attainment_over_twenty_steps(self, gamma_frac):
        params = ClassParams(0.5, 4.0)
        gamma = gamma_frac / params.L
        spec = quadratic_lower_bound(params, gamma, N=20)
        trace = run(spec.problem, spec.gamma, spec.x0, 20, s0=spec.s0)
        decay = contraction(params, gamma).geometric(20)
        for m in M:
            if decay == 0.0:
                assert trace.measure(m, 20) == 0.0
                continue
            attained = trace.measure(m, 20) / trace.measure(m, 0)
            assert attained == pytest.approx(decay, rel=1e-12)

    def test_closed_form_matches_simulation(self):
        params = ClassParams(1.0, 10.0)
        spec = quadratic_lower_bound(params, 0.13, N=7)
        trace = run(spec.problem, spec.gamma, spec.x0, 7, s0=spec.s0)
        for k in range(8):
            np.testing.assert_allclose(trace.records[k].x, spec.closed_form_iterates(k), rtol=1e-13)

    def test_rejections(self):
        with pytest.raises(ValueError):
            quadratic_lower_bound(ClassParams(1, 10), 0.21)  # beyond 2/L
        with pytest.raises(ValueError):
            quadratic_lower_bound(ClassParams(0, 1), 0.5)  # no linear rate at mu = 0

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):  # every measure would be 0
            quadratic_lower_bound(ClassParams(1, 10), 0.1, dim=0)

    @pytest.mark.parametrize("mu", [1e-300, 1e-160, 5e-324])
    def test_initial_measures_outside_the_float_range_rejected(self, mu):
        # the initial residual mu^2 dim underflows (1e-300: to 0, where the ratio divides by it)
        with pytest.raises(ValueError, match=f"curvature a = {mu} gives"):
            quadratic_lower_bound(ClassParams(mu, 1.0), 2 / (1 + mu), N=5)

    @pytest.mark.parametrize("N", [330, 2000])
    def test_final_measures_outside_the_float_range_rejected(self, N):
        # rho = 1/3: rho^(2N) is subnormal at N = 330 and 0.0 at N = 2000
        params = ClassParams(1.0, 2.0)
        with pytest.raises(ValueError, match=f"N = {N} gives rho"):
            quadratic_lower_bound(params, optimal_step(params)[0], N=N)

    def test_exact_zero_rate_predicts_exact_zero(self):
        params = ClassParams(2.0, 2.0)  # one optimal step reaches the optimum
        spec = quadratic_lower_bound(params, optimal_step(params)[0], N=2000)
        assert set(spec.predicted.values()) == {0.0}
        trace = run(spec.problem, spec.gamma, spec.x0, spec.N, s0=spec.s0)
        assert all(trace.measure(m, spec.N) == 0.0 for m in M)


class TestMixedMeasureInstance:
    def test_gap_target_reference_point(self):
        spec = mixed_measure_instance(ClassParams(1.0, 2.0), 2, 1.0, DIST_TO_FUNCGAP)
        assert spec.problem.f.b[0] == pytest.approx(1 / 15, rel=1e-15)
        assert spec.closed_form_iterates(2)[0] == pytest.approx(0.2, rel=1e-14)
        assert spec.predicted[DIST_TO_FUNCGAP] == pytest.approx(1 / 30, rel=1e-14)

    def test_residual_target_reference_point(self):
        spec = mixed_measure_instance(ClassParams(1.0, 2.0), 1, 1.0, DIST_TO_RESIDUAL)
        assert spec.problem.f.b[0] == pytest.approx(1.0, rel=1e-15)
        assert spec.predicted[DIST_TO_RESIDUAL] == pytest.approx(1.0, rel=1e-15)

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(ValueError):
            mixed_measure_instance(ClassParams(1.0, 2.0), 0, 1.0, DIST_TO_FUNCGAP)

    def test_nonpositive_start_rejected(self):
        with pytest.raises(ValueError):
            mixed_measure_instance(ClassParams(1.0, 2.0), 2, 0.0, DIST_TO_FUNCGAP)

    def test_degenerate_class_rejected(self):
        with pytest.raises(ValueError):
            mixed_measure_instance(ClassParams(2.0, 2.0), 2, 1.0, DIST_TO_FUNCGAP)

    @pytest.mark.parametrize("target", MIXED)
    @pytest.mark.parametrize("x0", [1e200, 1e-170, 1e-155])
    def test_start_outside_the_float_range_rejected(self, target, x0):
        # x0^2 overflows, underflows to 0, or is subnormal
        with pytest.raises(ValueError, match=re.escape(f"x0 = {x0} gives")):
            mixed_measure_instance(ClassParams(1.0, 2.0), 5, x0, target)
        for ok in (1e-100, 1e100):
            assert mixed_measure_instance(ClassParams(1.0, 2.0), 5, ok, target).predicted[target] > 0

    @pytest.mark.parametrize("target", [DIST_TO_FUNCGAP, DIST_TO_RESIDUAL, FUNCGAP_TO_RESIDUAL])
    @pytest.mark.parametrize("mu,L,N", [(1.0, 2.0, 3), (1.0, 10.0, 5), (0.5, 1.0, 2)])
    def test_simulation_attains_prediction(self, mu, L, N, target):
        params = ClassParams(mu, L)
        spec = mixed_measure_instance(params, N, 1.0, target)
        trace = run(spec.problem, spec.gamma, spec.x0, N, s0=spec.s0)
        # iterates match both the closed form and a direct recurrence oracle
        rec = iterate_recurrence(mu, L, float(spec.problem.f.b[0]), 1.0, N)
        for k in range(N + 1):
            assert trace.records[k].x[0] == pytest.approx(spec.closed_form_iterates(k)[0], abs=1e-12)
            assert trace.records[k].x[0] == pytest.approx(rec[k], abs=1e-12)
        init, final = target
        attained = trace.measure(final, N)
        assert attained == pytest.approx(spec.predicted[target], rel=1e-10)

    def test_feasibility_of_trajectory(self):
        for target in (DIST_TO_FUNCGAP, DIST_TO_RESIDUAL):
            spec = mixed_measure_instance(ClassParams(1.0, 3.0), 6, 2.0, target)
            assert min(spec.closed_form_iterates(k)[0] for k in range(7)) >= -1e-12

    def test_small_mu_limit_of_gap_prediction(self):
        L, N, x0 = 1.0, 5, 1.0
        limit = L * x0**2 / (4 * N)
        errors = []
        for mu in (1e-2, 1e-4, 1e-6):
            spec = mixed_measure_instance(ClassParams(mu, L), N, x0, DIST_TO_FUNCGAP)
            errors.append(abs(spec.predicted[DIST_TO_FUNCGAP] - limit))
        assert errors[0] > errors[1] > errors[2]
        # error shrinks proportionally to mu
        assert errors[1] / errors[0] == pytest.approx(1e-2, rel=0.25)
        assert errors[2] / errors[1] == pytest.approx(1e-2, rel=0.25)


class TestMixedMeasureExact:
    """The step-1/L instance decided in exact rationals, and the float spec read against it."""

    def test_exact_run_stays_in_the_orthant_and_attains_the_cell(self):
        rng = random.Random(12)
        for _ in range(40):
            L = Fraction(rng.randint(1, 20), rng.randint(1, 5))
            mu = L * Fraction(rng.randint(1, 99), 100)
            x0 = Fraction(rng.randint(1, 300), rng.randint(1, 100))
            N = rng.randint(1, 30)
            q = 1 - mu / L
            for init, final in MIXED:
                where = (mu, L, x0, N, init.value, final.value)
                c = mixed_slope_exact(final, mu, L, x0, N)
                xs, ss = pgm_exact(mu, c, x0, 1 / L, N, orthant=True)
                for k, x in enumerate(xs):
                    # the unprojected closed form: the projection never clips before N
                    closed = (c * q**k - c + mu * q**k * x0) / mu
                    assert x == closed and closed >= 0, (where, k)
                F0 = mu * x0**2 / 2 + c * x0
                if final is M.FUNC_GAP:
                    attained = mu * xs[N] ** 2 / 2 + c * xs[N]
                else:
                    assert xs[N] == 0, where
                    assert c**2 * (q ** (-2 * N) - 1) == 2 * mu * F0, where
                    attained = (mu * xs[N] + c + ss[N]) ** 2
                initial = x0**2 if init is M.DISTANCE_SQ else F0
                assert attained == initial * step_1_over_L_cell_exact(init, final, mu, L, N), where

    @pytest.mark.parametrize("target", MIXED)
    @pytest.mark.parametrize(
        "mu,L,N,x0", [(1.0, 2.0, 3, 1.0), (0.5, 10.0, 12, 2.937), (2.0, 3.0, 1, 0.5), (1e-6, 1.0, 5, 1.0)]
    )
    def test_prediction_is_the_table_cell_times_the_initial_measure(self, mu, L, N, x0, target):
        params = ClassParams(mu, L)
        spec = mixed_measure_instance(params, N, x0, target)
        init, final = target
        c = float(spec.problem.f.b[0])
        initial = x0**2 if init is M.DISTANCE_SQ else 0.5 * mu * x0**2 + c * x0
        cell = bound_lookup(init, final, params, 1.0 / L, N, conjectured=True)
        assert spec.predicted == {target: initial * cell.value}
        mu_q, L_q, x0_q = Fraction(mu), Fraction(L), Fraction(x0)
        c_q = mixed_slope_exact(final, mu_q, L_q, x0_q, N)
        initial_q = x0_q**2 if init is M.DISTANCE_SQ else mu_q * x0_q**2 / 2 + c_q * x0_q
        exact = initial_q * step_1_over_L_cell_exact(init, final, mu_q, L_q, N)
        assert abs(Fraction(spec.predicted[target]) - exact) <= Fraction(1e-13) * exact

    @pytest.mark.parametrize("L", [1.0, 3.0])
    @pytest.mark.parametrize("kappa", [0.5, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_float_slope_is_the_exact_slope(self, kappa, L):
        mu = kappa * L
        for N in (1, 5, 20, 100):
            for target in MIXED:
                c = mixed_measure_instance(ClassParams(mu, L), N, 1.0, target).problem.f.b[0]
                exact = mixed_slope_exact(target[1], Fraction(mu), Fraction(L), Fraction(1), N)
                assert abs(Fraction(float(c)) - exact) <= Fraction(1e-14) * exact, (N, target)


class TestClosedFormsExact:
    """Three generators run in Q on the exact values of their float data, at their own float step.

    The exact run follows the documented closed form at every k, and the float
    closed form and predictions agree with it to within their rounding, whose
    bound each test derives with u = eps/2 per operation. The exact-line-search
    zigzag runs at dyadic (mu, L), whose floats are exact, from the exact
    start (1/mu, 1/L), with the exact step <g, g>/<g, Hg>.
    """

    def test_quadratic_lower_bound(self):
        rng = random.Random(20)
        for _ in range(40):
            L = Fraction(rng.randint(1, 20), rng.randint(1, 5))
            mu = L * Fraction(rng.randint(1, 50), 100)
            gamma = 2 / L * Fraction(rng.randint(1, 100), 100)
            N, dim = rng.randint(1, 12), rng.randint(1, 3)
            spec = quadratic_lower_bound(ClassParams(float(mu), float(L)), float(gamma), dim, N)
            where = (mu, L, gamma, N, dim)
            assert isinstance(spec.problem.f, ScaledSqNorm) and isinstance(spec.problem.h, Zero), where
            a, g = Fraction(spec.problem.f.a), Fraction(spec.gamma)
            q = 1 - g * a
            # the float q = 1 - gamma a is off by at most u (g a + |q|), a relative u cond; a k-th power
            # multiplies that by k, and pow adds one rounding
            cond = 1 + g * a / abs(q)
            runs = [pgm_exact(a, Fraction(0), Fraction(x0), g, N, orthant=False) for x0 in spec.x0]
            for k in range(N + 1):
                for i, (xs, ss) in enumerate(runs):
                    assert xs[k] == q**k * xs[0] and ss[k] == 0, (where, k)  # (1 - gamma a)^k x0
                    closed = Fraction(spec.closed_form_iterates(k)[i])
                    assert abs(closed - xs[k]) <= (k + 2) * cond * EPS * abs(xs[k]), (where, k)
            measures = {  # x* = 0 and F* = 0; the residual is (f'(x) + s)^2
                M.DISTANCE_SQ: lambda k: sum(xs[k] ** 2 for xs, _ in runs),
                M.FUNC_GAP: lambda k: sum(a * xs[k] ** 2 / 2 for xs, _ in runs),
                M.RESIDUAL_GRAD_SQ: lambda k: sum((a * xs[k] + ss[k]) ** 2 for xs, ss in runs),
            }
            assert set(spec.predicted) == {(m, m) for m in M}, where
            for (m, _), predicted in spec.predicted.items():
                exact = measures[m](N) / measures[m](0)
                assert exact == q ** (2 * N), (where, m)  # rho^(2N)
                # rho^2 doubles the relative error of rho and ** N multiplies it by N
                assert abs(Fraction(predicted) - exact) <= (2 * N + 2) * cond * EPS * exact, (where, m)

    def test_els_worst_quadratic(self):
        rng = random.Random(22)
        for _ in range(40):
            # dyadic mu < L with small numerators: exact floats, and so are L - mu and L + mu
            mu = Fraction(rng.randint(1, 64), 2 ** rng.randint(0, 6))
            L = mu + Fraction(rng.randint(1, 512), 2 ** rng.randint(0, 6))
            N = rng.randint(1, 12)
            where = (mu, L, N)
            rho = (L - mu) / (L + mu)
            xs = els_exact([mu, L], [1 / mu, 1 / L], N)
            gap = [(mu * x[0] ** 2 + L * x[1] ** 2) / 2 for x in xs]  # x* = 0 and F* = 0
            for k, x in enumerate(xs):
                assert x == [rho**k / mu, (-1) ** k * rho**k / L], (where, k)  # the zigzag
            for k in range(N):
                assert gap[k + 1] / gap[k] == rho**2, (where, k)  # ((L-mu)/(L+mu))^2 at every step
            spec = els_worst_quadratic(ClassParams(float(mu), float(L)), N)
            assert [Fraction(v) for v in spec.problem.f.d] == [mu, L], where
            assert list(spec.x0) == [float(1 / mu), float(1 / L)], where  # 1/mu and 1/L, rounded once
            for k, x in enumerate(xs):
                # rho is one rounding of u = eps/2 (L - mu and L + mu are exact), rho ** k multiplies it by k
                # and pow adds one, 1/mu or (-1)^k/L one and the product one: (k + 3) u < (k + 3) eps
                closed = [Fraction(v) for v in spec.closed_form_iterates(k)]
                assert all(abs(c - e) <= (k + 3) * EPS * abs(e) for c, e in zip(closed, x)), (where, k)
            # rho * rho: twice the relative error of rho plus one rounding, 3 u < 2 eps
            predicted = Fraction(spec.predicted[M.FUNC_GAP, M.FUNC_GAP])
            assert abs(predicted - rho**2) <= 2 * EPS * rho**2, where

    def test_unbounded_family(self):
        rng = random.Random(21)
        for _ in range(40):
            L = Fraction(rng.randint(1, 20), rng.randint(1, 5))
            c = Fraction(rng.randint(1, 100), rng.randint(1, 100))
            x0 = Fraction(rng.randint(1, 300), rng.randint(1, 100))
            N = rng.randint(1, 12)
            spec = unbounded_family(float(c), x0=float(x0), N=N, L=float(L))
            where = (c, x0, N, L)
            f = spec.problem.f
            assert isinstance(spec.problem.h, NonnegIndicator) and list(f.d) == [0.0], where
            c, x0, g, L = Fraction(f.b[0]), Fraction(spec.x0[0]), Fraction(spec.gamma), Fraction(float(L))
            xs, ss = pgm_exact(Fraction(0), c, x0, g, N, orthant=True)
            for k, x in enumerate(xs):
                assert x == max(0, x0 - k * c * g), (where, k)  # max(0, x0 - k c / L) at the step 1/L
                # x0 - k*c/L: k c, / L and the step's own 1/L are three roundings of k c/L, the difference one
                closed = Fraction(spec.closed_form_iterates(k)[0])
                assert abs(closed - x) <= 2 * EPS * (x0 + k * c / L), (where, k)
            # x* = 0 and F* = 0: dist = x^2, gap = c x, residual = (c + s)^2 with s_0 = 0
            exact = {
                (M.FUNC_GAP, M.DISTANCE_SQ): lambda xN: xN**2 / (c * x0),
                (M.RESIDUAL_GRAD_SQ, M.DISTANCE_SQ): lambda xN: xN**2 / (c + ss[0]) ** 2,
                (M.RESIDUAL_GRAD_SQ, M.FUNC_GAP): lambda xN: c * xN / (c + ss[0]) ** 2,
            }
            assert set(spec.predicted) == set(exact), where
            # each prediction increases with x_N, which the float computes to within E as above,
            # then takes at most three roundings
            E = 2 * EPS * (x0 + N * c / L)
            for cell, predicted in spec.predicted.items():
                lo, hi = exact[cell](max(0, xs[N] - E)), exact[cell](xs[N] + E)
                assert lo * (1 - 4 * EPS) <= Fraction(predicted) <= hi * (1 + 4 * EPS), (where, cell)


class TestUnboundedFamily:
    def test_witness_ratios_grow_without_bound(self):
        big = unbounded_family(0.1)
        small = unbounded_family(0.01)
        for cell in big.predicted:
            assert small.predicted[cell] >= 10 * big.predicted[cell]

    def test_predictions_match_simulation(self):
        spec = unbounded_family(0.05, N=5)
        trace = run(spec.problem, spec.gamma, spec.x0, 5, s0=spec.s0)
        for (init, final), predicted in spec.predicted.items():
            attained = trace.measure(final, 5) / trace.measure(init, 0)
            assert attained == pytest.approx(predicted, rel=1e-12)

    def test_cells_are_the_unbounded_table_cells(self):
        spec = unbounded_family(0.1)
        for init, final in spec.predicted:
            b = bound_lookup(init, final, ClassParams(0.0, 1.0), 1.0, 5)
            assert b.is_unbounded

    def test_start_at_optimum_stays(self):
        spec = unbounded_family(1.0, x0=0.0)
        trace = run(spec.problem, spec.gamma, spec.x0, 4, s0=spec.s0)
        for k in range(5):
            assert trace.records[k].x[0] == 0.0
        assert spec.predicted == {}

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            unbounded_family(0.0)

    @pytest.mark.parametrize(
        "c,x0",
        [(1e-170, 1.0), (1e-160, 1.0), (1e-150, 1e-200), (1e200, 1.0), (1e-100, 1e200)],
    )
    def test_rejects_ratios_outside_the_float_range(self, c, x0):
        # c^2 underflows to 0 or a subnormal, c x0 underflows, c^2 overflows, or x_N^2 overflows
        with pytest.raises(ValueError, match=re.escape(f"c = {c} gives")):
            unbounded_family(c, x0=x0)

    def test_exact_zero_at_the_optimum_allowed(self):
        spec = unbounded_family(0.5, x0=2.0, N=5)  # x_N = max(0, 2 - 2.5) = 0
        assert list(spec.predicted.values()) == [0.0, 0.0, 0.0]


class TestElsWorstQuadratic:
    def test_ratio_attained(self):
        params = ClassParams(1.0, 10.0)
        spec = els_worst_quadratic(params, N=8)
        trace = run_exact_line_search(spec.problem, spec.x0, 8)
        rho_sq_star = optimal_step(params)[1].rho_squared
        for r in trace.step_ratios(M.FUNC_GAP):
            assert r == pytest.approx(rho_sq_star, rel=1e-12)
        for k in range(9):
            np.testing.assert_allclose(trace.records[k].x, spec.closed_form_iterates(k), rtol=1e-12)

    def test_degenerate_class_rejected(self):
        with pytest.raises(ValueError):
            els_worst_quadratic(ClassParams(2.0, 2.0))

    def test_eigendirection_start_converges_in_one_step(self):
        spec = els_worst_quadratic(ClassParams(1.0, 10.0))
        trace = run_exact_line_search(spec.problem, np.array([1.0, 0.0]), 1)
        assert trace.measure(M.FUNC_GAP, 1) == pytest.approx(0.0, abs=1e-20)


def _outcome(build):
    """The spec build() returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def _float_bits(value) -> tuple:
    return type(value), float(value).hex()


def _array_bits(a: np.ndarray) -> tuple:
    return type(a), a.dtype, a.shape, a.tobytes()


def _assert_same_spec(spec, ref):
    """spec and the reference generator's ref agree bit for bit in every field, or raise alike."""
    if isinstance(ref, tuple):
        assert spec == ref
        return
    assert not isinstance(spec, tuple), spec
    f, ref_f = spec.problem.f, ref.problem.f
    assert type(f) is type(ref_f) and f.params == ref_f.params
    (x_star, F_star), (ref_x_star, ref_F_star) = spec.problem.known_optimum, ref.problem.known_optimum
    for a, b in ((f.d, ref_f.d), (f.b, ref_f.b), (x_star, ref_x_star), (spec.x0, ref.x0), (spec.s0, ref.s0)):
        assert _array_bits(a) == _array_bits(b)
    assert type(spec.problem.h) is type(ref.problem.h) and spec.problem.h.dim == ref.problem.h.dim
    assert _float_bits(F_star) == _float_bits(ref_F_star)
    assert spec.N == ref.N and _float_bits(spec.gamma) == _float_bits(ref.gamma)
    assert list(spec.predicted) == list(ref.predicted)
    assert [_float_bits(v) for v in spec.predicted.values()] == [_float_bits(v) for v in ref.predicted.values()]
    for k in range(spec.N + 1):
        assert _array_bits(spec.closed_form_iterates(k)) == _array_bits(ref.closed_form_iterates(k))


class TestOrthantMatchesReference:
    """Both step-1/L generators build the spec, and raise the errors, of the padded code they replaced."""

    @pytest.mark.parametrize("target", MIXED, ids=lambda t: f"{t[0].value}->{t[1].value}")
    @pytest.mark.parametrize("mu,L", [(1e-6, 1.0), (1e-3, 1.0), (0.1, 1.0), (1.0, 2.0), (1.0, 3.0),
                                      (1.0, 10.0), (9.99, 10.0), (0.5, 1e3)])
    def test_mixed_measure_instance(self, target, mu, L):
        params = ClassParams(mu, L)
        for N in (1, 2, 5, 50):
            for x0 in (1e-100, 1, 1.0, 1e100):
                _assert_same_spec(_outcome(lambda: mixed_measure_instance(params, N, x0, target)),
                                  _outcome(lambda: reference_mixed_measure_instance(params, N, x0, target)))

    @pytest.mark.parametrize("L", [0.5, 1.0, 10.0])
    def test_unbounded_family(self, L):
        for c in (1e-170, 1e-8, 0.01, 0.1, 1.0, 3.0, 1e150, 1e300):
            for x0 in (0, 0.0, 1e-100, 1, 1.0, 1e100):
                for N in (0, 1, 5, 40):
                    _assert_same_spec(_outcome(lambda: unbounded_family(c, x0=x0, N=N, L=L)),
                                      _outcome(lambda: reference_unbounded_family(c, x0=x0, N=N, L=L)))

    @pytest.mark.parametrize(
        "params,N,x0,target",
        [
            (ClassParams(1.0, 2.0), 0, 1.0, DIST_TO_FUNCGAP),
            (ClassParams(1.0, 2.0), -1, 1.0, DIST_TO_FUNCGAP),
            (ClassParams(1.0, 2.0), 3, 0.0, DIST_TO_RESIDUAL),
            (ClassParams(1.0, 2.0), 3, -1.0, DIST_TO_RESIDUAL),
            (ClassParams(1.0, 2.0), 3, math.nan, FUNCGAP_TO_RESIDUAL),
            (ClassParams(1.0, 2.0), 3, math.inf, FUNCGAP_TO_RESIDUAL),
            (ClassParams(1.0, 2.0), 3, 1e-170, DIST_TO_FUNCGAP),
            (ClassParams(1.0, 2.0), 3, 1e200, DIST_TO_FUNCGAP),
            (ClassParams(1.0, 2.0), 3, 1.0, (M.DISTANCE_SQ, M.DISTANCE_SQ)),
            (ClassParams(2.0, 2.0), 3, 1.0, DIST_TO_FUNCGAP),
            (ClassParams(0.0, 1.0), 3, 1.0, DIST_TO_FUNCGAP),
            (ClassParams(0.5, 1.0), 600, 1.0, DIST_TO_RESIDUAL),
        ],
    )
    def test_mixed_measure_errors(self, params, N, x0, target):
        ref = _outcome(lambda: reference_mixed_measure_instance(params, N, x0, target))
        assert isinstance(ref, tuple)
        assert _outcome(lambda: mixed_measure_instance(params, N, x0, target)) == ref

    @pytest.mark.parametrize(
        "c,x0,N,L",
        [
            (0.0, 1.0, 5, 1.0), (-1.0, 1.0, 5, 1.0), (math.nan, 1.0, 5, 1.0), (math.inf, 1.0, 5, 1.0),
            (1e-170, 1.0, 5, 1.0), (1e-300, 1e100, 5, 1.0), (0.1, -1.0, 5, 1.0), (0.1, math.nan, 5, 1.0),
            (0.1, 1.0, -1, 1.0), (0.1, 1.0, 5, 0.0), (0.1, 1.0, 5, -1.0), (0.1, 1.0, 5, math.inf),
        ],
    )
    def test_unbounded_family_errors(self, c, x0, N, L):
        ref = _outcome(lambda: reference_unbounded_family(c, x0=x0, N=N, L=L))
        assert isinstance(ref, tuple)
        assert _outcome(lambda: unbounded_family(c, x0=x0, N=N, L=L)) == ref


class TestGeneratedInstancesAreClassMembers:
    def test_interpolation_and_prox_invariants(self):
        rng = np.random.default_rng(17)
        specs = [
            quadratic_lower_bound(ClassParams(1, 10), 0.05),
            quadratic_lower_bound(ClassParams(1, 10), 0.19),
            mixed_measure_instance(ClassParams(1.0, 2.0), 3, 1.0, DIST_TO_FUNCGAP),
            unbounded_family(0.1),
            els_worst_quadratic(ClassParams(1.0, 10.0)),
        ]
        for spec in specs:
            params = spec.problem.params
            if params.mu < params.L:
                pts = list(rng.normal(size=(4, spec.problem.dim)))
                assert check_interpolation(spec.problem.f, params, pts) >= -1e-12
            h = spec.problem.h
            x = h.prox(1.0, rng.normal(size=spec.problem.dim))
            s = (rng.normal(size=spec.problem.dim) * 0.0)  # canonical member
            assert h.subgradient_membership(x, h.subgradient(x), tol=1e-12)
            gamma = 0.3
            y = rng.normal(size=spec.problem.dim)
            p = h.prox(gamma, y)
            assert h.subgradient_membership(p, (y - p) / gamma, tol=1e-12)


class TestErrorPaths:
    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(lambda: mixed_measure_instance(ClassParams(1.0, 2.0), 5, 1.0, (M.DISTANCE_SQ, M.DISTANCE_SQ)),
                         "target must be one of", id="mixed-target"),
            pytest.param(lambda: unbounded_family(0.1, x0=-1.0), re.escape("x0 must be feasible (x0 >= 0)"),
                         id="unbounded-negative-x0"),
            pytest.param(lambda: unbounded_family(math.inf), "c = inf gives the initial gap inf", id="unbounded-c-inf"),
            pytest.param(lambda: unbounded_family(0.1, x0=math.nan), re.escape("x0 must be feasible (x0 >= 0)"),
                         id="unbounded-nan-x0"),
            pytest.param(lambda: unbounded_family(0.1, N=-1), "N must be >= 0", id="unbounded-negative-N"),
            pytest.param(lambda: unbounded_family(0.1, L=0.0), "L must be positive, got 0.0", id="unbounded-zero-L"),
        ],
    )
    def test_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
