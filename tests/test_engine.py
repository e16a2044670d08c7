
import numpy as np
import pytest

from proxrates import (
    BoxIndicator,
    ClassParams,
    CompositeProblem,
    DenseQuadratic,
    DiagonalQuadratic,
    L1Norm,
    LinearPlusNonnegIndicator,
    LineSearchError,
    MeasureKind,
    NonnegIndicator,
    ScaledSqNorm,
    Zero,
    contraction,
    exact_line_search_step,
    optimal_step,
    pgm_step,
    random_composite,
    residual_line_search_step,
    run,
    run_exact_line_search,
)
from proxrates.worstcase import DIST_TO_FUNCGAP, mixed_measure_instance

from helpers import line_search_oracle, line_search_phi

M = MeasureKind


def isotropic_problem(a, dim, params):
    return CompositeProblem(
        ScaledSqNorm(a, dim, params), Zero(dim), known_optimum=(np.zeros(dim), 0.0)
    )


class TestPgmStep:
    def test_unconstrained_isotropic_contraction(self):
        params = ClassParams(1.0, 10.0)
        problem = isotropic_problem(1.0, 3, params)
        x = np.array([1.0, -2.0, 0.5])
        gamma = 0.15
        x1, s1 = pgm_step(problem, gamma, x)
        np.testing.assert_allclose(x1, (1 - gamma) * x, rtol=1e-15)
        np.testing.assert_allclose(s1, np.zeros(3), atol=1e-15)

    def test_constrained_quadratic_first_step(self):
        # mu=1, L=2, c=1/15: one step from x0=1 lands at 7/15 with inactive constraint
        spec = mixed_measure_instance(ClassParams(1.0, 2.0), 2, 1.0, DIST_TO_FUNCGAP)
        x1, s1 = pgm_step(spec.problem, 0.5, spec.x0)
        assert x1[0] == pytest.approx(7 / 15, rel=1e-15)
        assert s1[0] == pytest.approx(0.0, abs=1e-16)

    def test_inactive_projection_gives_zero_subgradient(self):
        params = ClassParams(1.0, 2.0)
        f = DiagonalQuadratic([1.0, 2.0], [-1.0, -2.0], params)
        problem = CompositeProblem(f, NonnegIndicator(2))
        x = np.array([2.0, 2.0])
        x1, s1 = pgm_step(problem, 0.1, x)  # gradient step stays positive
        assert np.all(x1 > 0)
        np.testing.assert_allclose(s1, np.zeros(2), atol=1e-14)

    def test_zero_step_rejected(self):
        problem = isotropic_problem(1.0, 2, ClassParams(1.0, 2.0))
        with pytest.raises(ValueError):
            pgm_step(problem, 0.0, np.ones(2))


class TestRun:
    def test_worst_case_distance_ratio(self):
        mu, L = 1.0, 10.0
        params = ClassParams(mu, L)
        gamma, rate = optimal_step(params)
        problem = isotropic_problem(L, 2, params)  # curvature L attains the rate at gamma*
        trace = run(problem, gamma, np.array([0.3, -0.7]), 1)
        ratio = trace.measure(M.DISTANCE_SQ, 1) / trace.measure(M.DISTANCE_SQ, 0)
        assert ratio == pytest.approx(rate.rho_squared, rel=1e-13)

    def test_fixed_point_start(self):
        problem, _ = random_composite(ClassParams(1, 5), 4, "nonneg", seed=2)
        x_star, _ = problem.optimum()
        # with the optimality-balancing subgradient at x0 every measure is 0
        trace = run(problem, 0.2, x_star, 3, s0=-problem.f.grad(x_star))
        for k in range(4):
            assert trace.measure(M.DISTANCE_SQ, k) == pytest.approx(0.0, abs=1e-22)
            assert trace.measure(M.FUNC_GAP, k) == pytest.approx(0.0, abs=1e-14)
            assert trace.measure(M.RESIDUAL_GRAD_SQ, k) == pytest.approx(0.0, abs=1e-22)
        # the canonical s0 = 0 measures the subgradient actually used, which
        # need not vanish at a constrained optimum; later records still do
        trace0 = run(problem, 0.2, x_star, 2)
        assert trace0.measure(M.RESIDUAL_GRAD_SQ, 0) > 0
        for k in (1, 2):
            assert trace0.measure(M.RESIDUAL_GRAD_SQ, k) == pytest.approx(0.0, abs=1e-22)

    def test_constrained_quadratic_two_steps(self):
        spec = mixed_measure_instance(ClassParams(1.0, 2.0), 2, 1.0, DIST_TO_FUNCGAP)
        trace = run(spec.problem, 0.5, spec.x0, 2, s0=spec.s0)
        assert trace.records[2].x[0] == pytest.approx(0.2, rel=1e-14)
        assert trace.measure(M.FUNC_GAP, 2) == pytest.approx(1 / 30, rel=1e-13)

    def test_infeasible_start_rejected(self):
        problem, _ = random_composite(ClassParams(1, 5), 3, "nonneg", seed=0)
        with pytest.raises(ValueError):
            run(problem, 0.1, -np.ones(3), 2)
        with pytest.raises(ValueError, match="infeasible"):
            exact_line_search_step(problem, -np.ones(3))

    def test_negative_horizon_rejected(self):
        problem, x0 = random_composite(ClassParams(1, 5), 3, "nonneg", seed=0)
        for N in (-1, -3):
            with pytest.raises(ValueError, match="N must be >= 0"):
                run(problem, 0.1, x0, N)
            with pytest.raises(ValueError, match="N must be >= 0"):
                run_exact_line_search(problem, x0, N)
        with pytest.raises(ValueError, match="N must be >= 0"):  # reported before the step
            run(problem, 0.0, x0, -1)

    def test_optimum_read_at_most_twice_per_trace(self, monkeypatch):
        for kind in ("zero", "nonneg", "box", "l1"):
            problem, x0 = random_composite(ClassParams(1.0, 10.0), 6, kind, seed=4)
            calls = []
            try_optimum = problem.try_optimum
            monkeypatch.setattr(problem, "try_optimum", lambda: calls.append(1) or try_optimum())
            for runner in (run, lambda p, g, x, N: run_exact_line_search(p, x, N)):
                calls.clear()
                trace = runner(problem, 0.15, x0, 12)
                for m in M:
                    for k in range(len(trace)):
                        trace.measure_floor(m, k)
                assert len(calls) <= 2

    def test_invalid_s0_rejected(self):
        problem = isotropic_problem(1.0, 2, ClassParams(1.0, 2.0))
        with pytest.raises(ValueError):
            run(problem, 0.1, np.ones(2), 1, s0=np.array([1.0, 0.0]))

    def test_outside_theory_flag(self):
        params = ClassParams(1.0, 2.0)
        problem = isotropic_problem(1.0, 2, params)
        assert run(problem, 1.05, np.ones(2), 1).outside_theory  # > 2/L = 1
        assert not run(problem, 0.9, np.ones(2), 1).outside_theory

    def test_reconstruction_invariant(self):
        for kind in ("zero", "nonneg", "box", "l1"):
            problem, x0 = random_composite(ClassParams(0.7, 6.0), 5, kind, seed=13)
            gamma = 0.21
            trace = run(problem, gamma, x0, 12)
            for k in range(12):
                rec, nxt = trace.records[k], trace.records[k + 1]
                x_pred = problem.h.prox(gamma, rec.x - gamma * rec.grad_f)
                np.testing.assert_allclose(nxt.x, x_pred, atol=1e-12)
                s_pred = (rec.x - nxt.x) / gamma - rec.grad_f
                np.testing.assert_allclose(nxt.s, s_pred, atol=1e-12)
                assert problem.h.subgradient_membership(nxt.x, nxt.s, tol=1e-9)

    @pytest.mark.parametrize("kind", ["zero", "nonneg", "l1"])
    def test_per_step_contraction_all_measures(self, kind):
        # squared distance, residual and function gap each contract by rho^2
        params = ClassParams(1.0, 10.0)
        for gamma in (0.05, 1 / 10, 2 / 11, 0.15, 0.19):
            rho_sq = contraction(params, gamma).rho_squared
            for seed in range(5):
                problem, x0 = random_composite(params, 6, kind, seed=seed)
                trace = run(problem, gamma, x0, 10)
                for m in M:
                    for r in trace.step_ratios(m):
                        if r is not None:
                            assert r <= rho_sq * (1 + 1e-9)

    def test_relaxed_consecutive_inequality(self):
        # the residual proof only needs this curvature condition between
        # consecutive iterates
        params = ClassParams(1.0, 10.0)
        mu, L = params.mu, params.L
        problem, x0 = random_composite(params, 5, "l1", seed=21)
        trace = run(problem, 0.12, x0, 10)
        for k in range(10):
            dx = trace.records[k].x - trace.records[k + 1].x
            dg = trace.records[k].grad_f - trace.records[k + 1].grad_f
            lhs = float(dg @ dx)
            rhs = float(dg @ dg) / L + mu / (1 - mu / L) * float(np.sum((dx - dg / L) ** 2))
            assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs))


class TestExactLineSearch:
    def test_zigzag_quadratic_per_step_ratio(self):
        # classic worst case: oracle is the closed-form alternating iterates
        mu, L = 1.0, 10.0
        params = ClassParams(mu, L)
        f = DiagonalQuadratic([mu, L], None, params)
        problem = CompositeProblem(f, Zero(2), known_optimum=(np.zeros(2), 0.0))
        x0 = np.array([1 / mu, 1 / L])
        trace = run_exact_line_search(problem, x0, 6)
        rho_star = (L - mu) / (L + mu)
        for k, rec in enumerate(trace.records):
            expected = rho_star**k * np.array([1 / mu, (-1) ** k / L])
            np.testing.assert_allclose(rec.x, expected, rtol=1e-12)
        for r in trace.step_ratios(M.FUNC_GAP):
            assert r == pytest.approx(rho_star**2, rel=1e-12)

    def test_gradient_once_per_iterate(self, monkeypatch):
        N = 7
        for kind in ("zero", "nonneg", "box", "l1"):
            problem, x0 = random_composite(ClassParams(1.0, 10.0), 6, kind, seed=2)
            calls = []
            grad = problem.f.grad
            monkeypatch.setattr(problem.f, "grad", lambda x: calls.append(1) or grad(x))
            trace = run_exact_line_search(problem, x0, N)
            assert len(calls) == N + 1
            # steps that recompute their own gradient reach the same iterates
            x = x0
            for k in range(N):
                gamma, x = exact_line_search_step(problem, x)
                assert gamma == trace.gammas[k]
                assert x.tobytes() == trace.records[k + 1].x.tobytes()

    def test_isotropic_converges_in_one_step(self):
        mu = 2.0
        problem = isotropic_problem(mu, 3, ClassParams(mu, 5.0))
        gamma, x1 = exact_line_search_step(problem, np.array([1.0, -2.0, 3.0]))
        assert gamma == pytest.approx(1 / mu, rel=1e-14)
        np.testing.assert_allclose(x1, np.zeros(3), atol=1e-14)

    def test_argmin_dominates_fixed_candidate(self):
        params = ClassParams(1.0, 10.0)
        g_star = 2 / (params.L + params.mu)
        for seed in range(5):
            problem, x0 = random_composite(params, 4, "nonneg", seed=seed)
            gamma, x1 = exact_line_search_step(problem, x0)
            fixed = problem.h.prox(g_star, x0 - g_star * problem.f.grad(x0))
            assert problem.value(x1) <= problem.value(fixed) + 1e-10 * abs(problem.value(fixed))

    def test_els_function_gap_bound(self):
        # per-step ratio never exceeds the optimal-step squared rate
        params = ClassParams(1.0, 10.0)
        rho_sq_star = optimal_step(params)[1].rho_squared
        for kind in ("zero", "nonneg", "l1"):
            for seed in range(4):
                problem, x0 = random_composite(params, 4, kind, seed=seed)
                trace = run_exact_line_search(problem, x0, 6)
                for r in trace.step_ratios(M.FUNC_GAP):
                    if r is not None:
                        assert r <= rho_sq_star * (1 + 1e-8)

    def test_at_optimum_stays_put(self):
        for kind in ("l1", "zero", "nonneg", "box"):
            problem, _ = random_composite(ClassParams(1, 5), 3, kind, seed=4)
            x_star, _ = problem.optimum()
            gamma, x1 = exact_line_search_step(problem, x_star)
            assert gamma > 0
            np.testing.assert_allclose(x1, x_star, atol=1e-12)

    @pytest.mark.parametrize(
        "h", [Zero(2), NonnegIndicator(2), BoxIndicator([0.0, -1.0], [1.0, 2.0]), L1Norm(0.5, 2)]
    )
    def test_zero_gradient_stays_put(self, h):
        # x is feasible for every h; g = 0 there makes it optimal (x = 0 for l1)
        x = np.array([0.0, 0.5]) if not isinstance(h, L1Norm) else np.zeros(2)
        f = DiagonalQuadratic([0.0, 2.0], -np.array([0.0, 2.0]) * x, ClassParams(0.0, 2.0))
        gamma, x1 = exact_line_search_step(CompositeProblem(f, h), x)
        assert gamma > 0
        np.testing.assert_array_equal(x1, x)

    def test_unbounded_direction_reported(self):
        f = DiagonalQuadratic([0.0], [1.0], ClassParams(0.0, 1.0))
        problem = CompositeProblem(f, Zero(1), known_optimum=None)
        with pytest.raises(LineSearchError):
            exact_line_search_step(problem, np.array([1.0]))
        # zero curvature and slope -1: the path moves up forever, F falls linearly
        f = DiagonalQuadratic([0.0], [-1.0], ClassParams(0.0, 1.0))
        for h in (NonnegIndicator(1), BoxIndicator([0.0], [np.inf]), L1Norm(0.5, 1)):
            problem = CompositeProblem(f, h, known_optimum=None)
            with pytest.raises(LineSearchError, match="unbounded"):
                exact_line_search_step(problem, np.array([1.0]))

    def test_dense_quadratic_needs_zero_h(self):
        f = DenseQuadratic(np.array([[2.0, 0.5], [0.5, 1.5]]), [1.0, -2.0])
        with pytest.raises(ValueError, match="not separable"):
            exact_line_search_step(CompositeProblem(f, NonnegIndicator(2)), np.ones(2))

    @pytest.mark.parametrize(
        "kind,dim,seed",
        [("nonneg", 8, 134), ("nonneg", 8, 190), ("box", 8, 45), ("nonneg", 1000, 138),
         ("nonneg", 1000, 303), ("l1", 1000, 59), ("l1", 1000, 185), ("l1", 1000, 358)],
    )
    def test_multi_piece_path_beats_fixed_step(self, kind, dim, seed):
        # instances whose phi has several local minima along the prox path; the
        # l1 ones only reach such a step after six or seven steps
        params = ClassParams(1, 10)
        g_star = 2 / (params.L + params.mu)
        problem, x = random_composite(params, dim, kind, seed)
        for _ in range(10):
            fixed = problem.value(problem.h.prox(g_star, x - g_star * problem.f.grad(x)))
            _, x = exact_line_search_step(problem, x)
            assert problem.value(x) <= fixed + 1e-12 * (1 + abs(fixed))

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_matches_grid_oracle(self, mu):
        # mu = 0 instances have zero-curvature coordinates; some are unbounded
        L = 4.0
        rng = np.random.default_rng(int(10 * mu) + 17)
        unbounded = 0
        for trial in range(40):
            dim = int(rng.integers(1, 7))
            d = rng.uniform(mu, L, dim)
            if mu == 0:
                d[rng.random(dim) < 0.4] = 0.0
            f = DiagonalQuadratic(d, rng.uniform(-1, 1, dim), ClassParams(mu, L))
            lo = rng.uniform(-2, 0, dim)
            for h in (
                Zero(dim),
                NonnegIndicator(dim),
                BoxIndicator(lo, lo + rng.uniform(0.5, 2, dim)),
                L1Norm(float(rng.uniform(0.1, 1.5)), dim),
                LinearPlusNonnegIndicator(rng.uniform(-1, 1, dim)),
            ):
                problem = CompositeProblem(f, h)
                x = h.prox(1.0, rng.normal(size=dim) * 2)  # feasible, often on a kink
                try:
                    gamma, x1 = exact_line_search_step(problem, x)
                except LineSearchError:
                    unbounded += 1
                    far = [line_search_phi(problem, x, 10.0**k / L) for k in (4, 6, 8)]
                    assert far[0] > far[1] > far[2]
                    continue
                phi_min = line_search_oracle(problem, x)
                assert gamma > 0
                assert problem.value(x1) <= phi_min + 1e-12 * (1 + abs(phi_min))
        assert (unbounded > 0) == (mu == 0)


class TestResidualLineSearch:
    def test_isotropic_jumps_to_optimum(self):
        f = ScaledSqNorm(2.0, 3, ClassParams(2.0, 5.0))
        _, x1 = residual_line_search_step(f, np.array([1.0, 2.0, -1.0]))
        np.testing.assert_allclose(x1, np.zeros(3), atol=1e-14)

    def test_two_dim_ratio_bounded_by_optimal_rate(self):
        mu, L = 1.0, 10.0
        f = DiagonalQuadratic([mu, L], None, ClassParams(mu, L))
        x = np.array([1.0, 1 / L])
        _, x1 = residual_line_search_step(f, x)
        ratio = float(f.grad(x1) @ f.grad(x1)) / float(f.grad(x) @ f.grad(x))
        assert ratio <= ((L - mu) / (L + mu)) ** 2 * (1 + 1e-12)

    def test_stationary_point_unchanged(self):
        f = DiagonalQuadratic([1.0, 2.0], None, ClassParams(1, 2))
        alpha, x1 = residual_line_search_step(f, np.zeros(2))
        np.testing.assert_array_equal(x1, np.zeros(2))

    def test_random_instances_contract(self):
        params = ClassParams(1.0, 10.0)
        rho_sq_star = optimal_step(params)[1].rho_squared
        rng = np.random.default_rng(6)
        from proxrates import random_instance

        for seed in range(20):
            f = random_instance(params, 5, seed)
            x = rng.normal(size=5) * 2
            for _ in range(4):
                g_before = float(f.grad(x) @ f.grad(x))
                if g_before == 0:
                    break
                _, x = residual_line_search_step(f, x)
                g_after = float(f.grad(x) @ f.grad(x))
                assert g_after <= rho_sq_star * g_before * (1 + 1e-8)
