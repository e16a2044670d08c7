import math

import numpy as np
import pytest

from proxrates import (
    ClassParams,
    CompositeProblem,
    MeasureKind,
    MeasureTriple,
    NonnegIndicator,
    ScaledSqNorm,
    Zero,
    check_mixed_bound,
    check_proposition,
    optimal_step,
    quadratic_lower_bound,
    run,
    run_exact_line_search,
)

M = MeasureKind


def isotropic_trace(a, params, gamma, N=6):
    problem = CompositeProblem(
        ScaledSqNorm(a, 2, params), Zero(2), known_optimum=(np.zeros(2), 0.0)
    )
    return run(problem, gamma, np.array([1.0, 0.0]), N)


class TestProposition:
    def test_equalities_at_origin_point(self):
        slacks = check_proposition(MeasureTriple(0.0, 0.0, 0.0), ClassParams(1, 2))
        assert all(s == 0.0 for _, s in slacks)

    def test_small_curvature_quadratic_saturates(self):
        mu = 0.7
        params = ClassParams(mu, 3.0)
        triple = MeasureTriple(1.0, mu / 2, mu**2)
        for name, slack in check_proposition(triple, params):
            assert slack == pytest.approx(0.0, abs=1e-15), name

    def test_large_curvature_quadratic_has_slack(self):
        mu, L = 1.0, 5.0
        triple = MeasureTriple(1.0, L / 2, L**2)
        for _, slack in check_proposition(triple, ClassParams(mu, L)):
            assert slack > 0.1

    def test_requires_strong_convexity(self):
        with pytest.raises(ValueError):
            check_proposition(MeasureTriple(1.0, 1.0, 1.0), ClassParams(0, 1))

    def test_trace_records_satisfy_it(self):
        params = ClassParams(1.0, 10.0)
        spec = quadratic_lower_bound(params, 0.19, N=8)
        trace = run(spec.problem, spec.gamma, spec.x0, 8, s0=spec.s0)
        for rec in trace.records:
            triple = MeasureTriple(rec.dist_sq, rec.func_gap, rec.residual_grad_sq)
            for _, slack in check_proposition(triple, params):
                assert slack >= -1e-9


class TestMixedBound:
    THM_CELLS = [
        (M.FUNC_GAP, M.DISTANCE_SQ),
        (M.RESIDUAL_GRAD_SQ, M.DISTANCE_SQ),
        (M.RESIDUAL_GRAD_SQ, M.FUNC_GAP),
    ]

    def test_small_curvature_short_step_is_tight(self):
        mu, L = 1.0, 10.0
        params = ClassParams(mu, L)
        for gamma in (0.05, 1 / L, 2 / (L + mu)):
            trace = isotropic_trace(mu, params, gamma)
            for cell in self.THM_CELLS:
                for k in (1, 3, 6):
                    assert check_mixed_bound(trace, *cell, k) == pytest.approx(0.0, abs=1e-10)

    def test_conservative_beyond_short_steps(self):
        mu, L = 1.0, 10.0
        params = ClassParams(mu, L)
        trace = isotropic_trace(L, params, 1.9 / L)
        for cell in self.THM_CELLS:
            assert check_mixed_bound(trace, *cell, 3) > 1e-3

    def test_diagonal_cells_hold_on_any_trace(self):
        params = ClassParams(0.5, 4.0)
        trace = isotropic_trace(4.0, params, 0.4)
        for m in M:
            assert check_mixed_bound(trace, m, m, 4) >= -1e-12

    def test_iterate_at_optimum_has_full_slack(self):
        # constraint-tightening instance lands exactly on the optimum at k=1,
        # so the bound side is the entire normalized slack
        from proxrates import mixed_measure_instance
        from proxrates.worstcase import DIST_TO_RESIDUAL

        spec = mixed_measure_instance(ClassParams(1.0, 2.0), 1, 1.0, DIST_TO_RESIDUAL)
        trace = run(spec.problem, spec.gamma, spec.x0, 1, s0=spec.s0)
        assert trace.records[1].x[0] == pytest.approx(0.0, abs=1e-15)
        for cell in self.THM_CELLS:
            assert check_mixed_bound(trace, *cell, 1) >= 0.0

    def test_conjectured_cell_passthrough(self):
        mu, L = 1.0, 2.0
        params = ClassParams(mu, L)
        trace = isotropic_trace(mu, params, 1 / L)
        slack = check_mixed_bound(trace, M.DISTANCE_SQ, M.FUNC_GAP, 2, conjectured=True)
        assert slack >= -1e-10

    def test_requires_fixed_step_trace(self):
        params = ClassParams(1.0, 10.0)
        problem = CompositeProblem(
            ScaledSqNorm(10.0, 2, params), Zero(2), known_optimum=(np.zeros(2), 0.0)
        )
        trace = run_exact_line_search(problem, np.array([1.0, 1.0]), 3)
        with pytest.raises(ValueError):
            check_mixed_bound(trace, M.FUNC_GAP, M.DISTANCE_SQ, 2)

    def test_missing_initial_subgradient_is_an_error(self):
        class OpaqueOrthant(NonnegIndicator):
            def subgradient(self, x):
                raise NotImplementedError

        params = ClassParams(1.0, 4.0)
        f = ScaledSqNorm(1.0, 2, params)
        problem = CompositeProblem(f, OpaqueOrthant(2), known_optimum=(np.zeros(2), 0.0))
        trace = run(problem, 0.2, np.array([1.0, 2.0]), 3)
        assert trace.records[0].residual_grad_sq is None
        with pytest.raises(ValueError):
            check_mixed_bound(trace, M.RESIDUAL_GRAD_SQ, M.DISTANCE_SQ, 2)

    def test_k_range_checked(self):
        params = ClassParams(1.0, 10.0)
        trace = isotropic_trace(1.0, params, 0.1, N=3)
        with pytest.raises(ValueError):
            check_mixed_bound(trace, M.FUNC_GAP, M.DISTANCE_SQ, 0)
        with pytest.raises(ValueError):
            check_mixed_bound(trace, M.FUNC_GAP, M.DISTANCE_SQ, 4)


class TestErrorPaths:
    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(lambda: MeasureTriple(-1e-300, 0.0, 0.0), "squared measures must be nonnegative",
                         id="negative-distance"),
            pytest.param(lambda: MeasureTriple(0.0, -1.0, -1.0), "squared measures must be nonnegative",
                         id="negative-residual"),
            pytest.param(lambda: MeasureTriple(math.nan, 1.0, 1.0), "dist_sq must be finite, got nan",
                         id="nan-distance"),
            pytest.param(lambda: MeasureTriple(1.0, math.nan, 1.0), "func_gap must be finite, got nan", id="nan-gap"),
            pytest.param(lambda: MeasureTriple(1.0, 1.0, math.nan), "residual_grad_sq must be finite, got nan",
                         id="nan-residual"),
            pytest.param(lambda: MeasureTriple(math.inf, 1.0, 1.0), "dist_sq must be finite, got inf",
                         id="inf-distance"),
            pytest.param(lambda: MeasureTriple(1.0, -math.inf, 1.0), "func_gap must be finite, got -inf",
                         id="inf-gap"),
            pytest.param(lambda: MeasureTriple(1.0, 1.0, math.inf), "residual_grad_sq must be finite, got inf",
                         id="inf-residual"),
        ],
    )
    def test_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "triple,mu,conversion",
        [
            # mu^2 underflows to 0, then to a subnormal whose quotient overflows; a residual of 1e308 over mu^2 = 1/4
            pytest.param(MeasureTriple(1.0, 1.0, 1.0), 1e-170, "dist_le_residual_over_musq", id="mu-1e-170"),
            pytest.param(MeasureTriple(1.0, 1.0, 1.0), 1e-160, "dist_le_residual_over_musq", id="mu-1e-160"),
            pytest.param(MeasureTriple(1.0, 1.0, 1e308), 0.5, "dist_le_residual_over_musq", id="residual-1e308"),
            pytest.param(MeasureTriple(1.0, -1e308, 1.0), 0.5, "dist_le_2gap_over_mu", id="gap-minus-1e308"),
        ],
    )
    def test_conversion_past_the_float_range_rejected(self, triple, mu, conversion):
        with pytest.raises(ValueError, match=f"conversion {conversion} leaves the float range at mu = {mu}$"):
            check_proposition(triple, ClassParams(mu, 1.0), MeasureTriple(0.0, 0.0, 0.0))
