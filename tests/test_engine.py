
import hashlib
import math
import re
import tracemalloc

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
    random_instance,
    residual_line_search_step,
    run,
    run_exact_line_search,
)
from proxrates import engine
from proxrates.worstcase import DIST_TO_FUNCGAP, mixed_measure_instance

from helpers import exact_step_oracle, line_search_oracle, line_search_phi, trace_oracle, value_oracle

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

    def test_s0_near_a_kink_rejected(self):
        # at x0 = 1e-12 the l1 subdifferential is {0.5}; 1e-12 within the tolerance is not the kink
        params = ClassParams(1.0, 2.0)
        problem = CompositeProblem(ScaledSqNorm(1.0, 1, params), L1Norm(0.5, 1))
        with pytest.raises(ValueError, match="supplied s0 is not a subgradient"):
            run(problem, 0.1, [1e-12], 1, s0=[0.0])
        assert len(run(problem, 0.1, [1e-12], 1, s0=[0.5])) == 2

    def test_prox_residual_s0_accepted_at_any_scale(self):
        # s = (y - p)/gamma carries a rounding of about eps |y| / gamma: an absolute 1e-9 refuses half of these
        h = LinearPlusNonnegIndicator([0.5])
        problem = CompositeProblem(DiagonalQuadratic([1.0], None, ClassParams(1.0, 2.0)), h)
        rng = np.random.default_rng(0)
        for y, gamma in zip(rng.uniform(1e6, 1e8, 1000), rng.uniform(0.01, 3.0, 1000)):
            p = h.prox(gamma, [y])
            assert len(run(problem, gamma, p, 1, s0=(y - p) / gamma)) == 2

    @pytest.mark.parametrize(
        "h,x0,gamma,s0",
        [
            (Zero(1), [1.0], 0.1, [1e-12]),  # the tolerance is 4 eps (10 + 1), about 1e-14
            (LinearPlusNonnegIndicator([0.5]), [1e8], 0.01, [0.5 + 1e-3]),  # about 9e-6 at this scale
        ],
    )
    def test_s0_beyond_one_prox_rounding_rejected(self, h, x0, gamma, s0):
        problem = CompositeProblem(DiagonalQuadratic([1.0], None, ClassParams(1.0, 2.0)), h)
        with pytest.raises(ValueError, match="supplied s0 is not a subgradient"):
            run(problem, gamma, x0, 1, s0=s0)

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

    def test_one_prox_per_step(self, monkeypatch):
        N = 7
        for kind in ("zero", "nonneg", "box", "l1"):
            problem, x0 = random_composite(ClassParams(1.0, 10.0), 6, kind, seed=3)
            calls = []
            prox = problem.h.prox
            monkeypatch.setattr(problem.h, "prox", lambda g, v: calls.append(1) or prox(g, v))
            trace = run_exact_line_search(problem, x0, N)
            assert len(calls) == N
            monkeypatch.undo()
            # each record is the fixed-step PGM step at the recorded gamma
            for k in range(N):
                x, s = pgm_step(problem, trace.gammas[k], trace.records[k].x)
                assert x.tobytes() == trace.records[k + 1].x.tobytes()
                assert s.tobytes() == trace.records[k + 1].s.tobytes()

    def test_value_calls_match_fixed_step(self, monkeypatch):
        # both runners evaluate F once per block of rows, never once per step, and read no value at one point
        N = 10
        for kind in ("zero", "nonneg", "box", "l1"):
            for dim in (8, 20_000):  # one block of 11 rows; blocks of 3, 3, 3 and 2
                problem, x0 = random_composite(ClassParams(1.0, 10.0), dim, kind, seed=5)
                problem.try_optimum()  # cached: neither run pays for it
                rows, points = [], []
                values = problem._values
                monkeypatch.setattr(problem, "_values", lambda X: rows.append(len(X)) or values(X))
                for owner in (problem, problem.f, problem.h):
                    monkeypatch.setattr(owner, "value", lambda x: points.append(x))
                nb = min(N + 1, engine._BLOCK // dim)
                full, last = divmod(N + 1, nb)
                for runner in (lambda: run(problem, 0.15, x0, N), lambda: run_exact_line_search(problem, x0, N)):
                    rows.clear()
                    runner()
                    assert rows == [nb] * full + [last] * (last > 0) and not points

    def test_closed_form_matches_prox_path(self):
        # h = 0 takes the closed form; l1 with weight 0 is the same objective through the prox-path sweep
        rng = np.random.default_rng(7)
        for seed in range(200):
            dim = int(rng.integers(1, 12))
            f = random_instance(ClassParams(float(rng.uniform(0.1, 1.0)), 4.0), dim, seed)
            x = rng.normal(size=dim) * 3
            fast = exact_line_search_step(CompositeProblem(f, Zero(dim)), x)
            slow = exact_line_search_step(CompositeProblem(f, L1Norm(0.0, dim)), x)
            assert slow[0] == pytest.approx(fast[0], rel=1e-12, abs=0)
            np.testing.assert_allclose(slow[1], fast[1], rtol=1e-12, atol=1e-12 * np.abs(x).max())

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

    def test_infeasible_start_reported_before_separability(self):
        f = DenseQuadratic(np.array([[2.0, 0.5], [0.5, 1.5]]), [1.0, -2.0])
        with pytest.raises(ValueError, match="infeasible"):
            exact_line_search_step(CompositeProblem(f, NonnegIndicator(2)), -np.ones(2))

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


def _oracle_step(problem, gamma):
    """The step of `run` at gamma, or of `run_exact_line_search` when gamma is None."""
    if gamma is not None:
        return lambda x, g: (gamma, *pgm_step(problem, gamma, x, g))

    def step(x, g):
        t, x_next = exact_line_search_step(problem, x)  # its gradient at x is g, bit for bit
        return t, x_next, (x - x_next) / t - g

    return step


def _matches_oracle(problem, x0, N, gamma=None, s0=None) -> bool:
    """The columnar trace equals the per-record oracle bit for bit (True), or both raise alike (False)."""
    try:
        oracle = trace_oracle(problem, x0, N, _oracle_step(problem, gamma), s0=s0)
    except (ValueError, LineSearchError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            run_exact_line_search(problem, x0, N) if gamma is None else run(problem, gamma, x0, N, s0=s0)
        return False
    trace = run_exact_line_search(problem, x0, N) if gamma is None else run(problem, gamma, x0, N, s0=s0)
    assert len(trace) == len(trace.records) == len(oracle.records)
    assert trace.gammas == oracle.gammas
    assert trace.X.tobytes() == np.stack([r.x for r in oracle.records]).tobytes()
    assert trace.G.tobytes() == np.stack([r.grad_f for r in oracle.records]).tobytes()
    for k, (rec, want) in enumerate(zip(trace.records, oracle.records)):
        assert rec.x.tobytes() == want.x.tobytes()
        assert rec.grad_f.tobytes() == want.grad_f.tobytes()
        assert (rec.s is None) == (want.s is None)
        assert rec.s is None or rec.s.tobytes() == want.s.tobytes()
        assert rec.F_val == want.F_val
        for m in M:
            assert (trace.measure(m, k) is None) == (want.measure(m) is None)
            assert rec.measure(m) == trace.measure(m, k) == want.measure(m)
            assert trace.measure_floor(m, k) == oracle.measure_floor(m, k)
    for m in M:
        assert trace.step_ratios(m) == oracle.step_ratios(m)
    return True


class TestColumnarTrace:
    """The trace's columns, floors and ratios against the list-of-records oracle."""

    @pytest.mark.parametrize("dim", [1, 8, 1000])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["zero", "nonneg", "box", "l1"])
    def test_matches_record_oracle(self, kind, mu, dim):
        compared = 0
        for seed in (0, 1):
            problem, x0 = random_composite(ClassParams(mu, 10.0), dim, kind, seed)
            s0 = problem.h.subgradient(x0) + 0.0
            for N in (0, 12):
                compared += _matches_oracle(problem, x0, N, gamma=0.15)
                compared += _matches_oracle(problem, x0, N, gamma=0.15, s0=s0)
                compared += _matches_oracle(problem, x0, N)
        assert compared >= 8

    @pytest.mark.parametrize("dim", [1, 8, 1000])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("kind", ["zero", "nonneg", "box", "l1"])
    def test_multi_block_matches_record_oracle(self, monkeypatch, kind, mu, dim):
        # 3-row blocks: N = 12 reduces blocks of 3, 3, 3, 3 and 1 rows, and reading a row rebuilds the run
        monkeypatch.setattr(engine, "_BLOCK", 3 * dim)
        problem, x0 = random_composite(ClassParams(mu, 10.0), dim, kind, 0)
        assert run(problem, 0.15, x0, 12)._rerun is not None and run(problem, 0.15, x0, 2)._rerun is None
        self.test_matches_record_oracle(kind, mu, dim)

    def test_memory_does_not_grow_with_N(self):
        # at dim 2e4 the rows of N = 200 and N = 400 would take 96 and 192 MB
        peaks = []
        for N in (200, 400):
            problem, x0 = random_composite(ClassParams(1.0, 10.0), 20_000, "l1", 0)
            problem.try_optimum()
            tracemalloc.start()
            try:
                trace = run(problem, 0.15, x0, N)
                for m in M:
                    trace.measures[m], trace.floors[m], trace.step_ratios(m)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8e6 and max(peaks) < 1.1 * min(peaks), peaks

    def test_rebuild_after_the_problem_changed_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK", 3 * 8)
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 8, "l1", 0)
        trace = run(problem, 0.15, x0, 12)
        b0 = problem.f.b[0]
        problem.f.b[0] += 1.0
        with pytest.raises(RuntimeError, match="problem changed since the run"):
            trace.X
        problem.f.b[0] = b0  # a failed rebuild is not cached: the restored problem rebuilds the run
        assert trace.records[12].F_val == trace.F[12]

    def test_missing_measures_stay_none(self):
        class OpaqueOrthant(NonnegIndicator):
            def subgradient(self, x):
                raise NotImplementedError

        f = DenseQuadratic(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, -1.0]), ClassParams(1.0, 4.0))
        problem = CompositeProblem(f, OpaqueOrthant(2))
        x0 = np.array([1.0, 2.0])
        assert problem.try_optimum() is None
        assert _matches_oracle(problem, x0, 0, gamma=0.2) and _matches_oracle(problem, x0, 5, gamma=0.2)
        trace = run(problem, 0.2, x0, 5)
        assert trace.records[0].s is None and trace.records[1].s is not None
        assert trace.measure(M.RESIDUAL_GRAD_SQ, 0) is None and trace.measure(M.DISTANCE_SQ, 3) is None
        assert trace.step_ratios(M.FUNC_GAP) == [None] * 5

    def test_records_are_a_sequence_of_row_views(self):
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 4, "l1", 0)
        trace = run(problem, 0.1, x0, 6)
        records = trace.records
        assert isinstance(records, list) and trace.records is not records  # a fresh list per access
        assert len(records) == 7 and len(list(records)) == 7
        assert [r.F_val for r in records[2:5]] == [records[k].F_val for k in (2, 3, 4)]
        assert records[-1].x.tobytes() == trace.X[6].tobytes()
        assert np.shares_memory(records[3].x, trace.X)
        with pytest.raises(IndexError):
            records[7]
        x0[0] += 1.0  # the trace holds its own copy of the start
        assert records[0].x[0] != x0[0]


F_KINDS = ("scaled", "diagonal", "dense")
H_KINDS = ("zero", "nonneg", "box", "l1", "linear")


def _catalog_problem(f_kind: str, h_kind: str, dim: int, seed: int = 0):
    """A catalog f plus a catalog h, with a start in the domain of h."""
    rng = np.random.default_rng(seed)
    if f_kind == "scaled":
        f = ScaledSqNorm(3.0, dim, ClassParams(1.0, 10.0))
    elif f_kind == "diagonal":
        f = random_instance(ClassParams(1.0, 10.0), dim, seed)
    else:
        B = rng.uniform(-1.0, 1.0, (dim, dim))
        f = DenseQuadratic(B + B.T + 3.0 * dim * np.eye(dim), rng.uniform(-1.0, 1.0, dim))
    x0 = rng.uniform(-2.0, 2.0, dim)
    if h_kind == "zero":
        h = Zero(dim)
    elif h_kind == "nonneg":
        h, x0 = NonnegIndicator(dim), np.abs(x0)
    elif h_kind == "box":
        lo = rng.uniform(-2.0, 0.0, dim)
        h = BoxIndicator(lo, lo + rng.uniform(0.5, 2.0, dim))
        x0 = np.clip(x0, h.lo, h.hi)
    elif h_kind == "l1":
        h = L1Norm(0.7, dim)
    else:
        h, x0 = LinearPlusNonnegIndicator(rng.uniform(-1.0, 1.0, dim)), np.abs(x0)
    return CompositeProblem(f, h), x0


def _oracle_instance(h_kind: str, dim: int, mu: float, ties: bool, rng):
    """A diagonal f in F(mu, 4) plus a catalog h, and a start h.prox(1, y), often on a kink.

    At mu = 0 about a third of the coordinates have zero curvature. With
    `ties` the data take a few small values only, so that breakpoints of
    different coordinates coincide.
    """
    L = 4.0
    if ties:
        d = rng.choice([mu, 1.0, L], dim)
        b, y = rng.choice([-1.0, 0.0, 1.0], dim), rng.choice([-2.0, -1.0, 1.0, 2.0], dim)
    else:
        d = rng.uniform(mu, L, dim)
        if mu == 0:
            d[rng.random(dim) < 0.3] = 0.0
        b, y = rng.uniform(-1.0, 1.0, dim), rng.normal(size=dim) * 2
    lo = rng.uniform(-2.0, 0.0, dim)
    h = {
        "zero": lambda: Zero(dim),
        "nonneg": lambda: NonnegIndicator(dim),
        "box": lambda: BoxIndicator(lo, lo + rng.uniform(0.5, 2.0, dim)),
        "l1": lambda: L1Norm(float(rng.uniform(0.1, 1.5)), dim),
        "linear": lambda: LinearPlusNonnegIndicator(rng.uniform(-1.0, 1.0, dim)),
    }[h_kind]()
    return CompositeProblem(DiagonalQuadratic(d, b, ClassParams(mu, L)), h), h.prox(1.0, y)


def _same_step(problem, x) -> float | None:
    """The library's step at x, asserted to be the oracle's float bit for bit; None where both raise the same error."""
    g = problem.f.grad(x)
    try:
        expected = exact_step_oracle(problem, x, g)
    except LineSearchError as error:
        with pytest.raises(LineSearchError, match=f"^{re.escape(str(error))}$"):
            engine._exact_step_size(problem, x, g)
        return None
    gamma = engine._exact_step_size(problem, x, g)
    assert np.float64(gamma).tobytes() == np.float64(expected).tobytes()
    return gamma


class TestExactStepOracle:
    """The sweep over contiguous coefficient rows is the (k+1, dim, 3) sweep it replaced (helpers.exact_step_oracle)."""

    @pytest.mark.parametrize("h_kind", H_KINDS)
    @pytest.mark.parametrize("dim,seeds", [(1, 24), (2, 24), (8, 16), (1000, 3), (20_000, 1)])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_chained_steps(self, h_kind, dim, seeds, mu):
        # ten steps per start, each from where the last one landed, until the objective is unbounded
        rng = np.random.default_rng([dim, int(mu), H_KINDS.index(h_kind)])
        steps = 0
        for seed in range(seeds):
            for ties in (False, True):
                problem, x = _oracle_instance(h_kind, dim, mu, ties, rng)
                for _ in range(10):
                    gamma = _same_step(problem, x)
                    if gamma is None:
                        break
                    x, steps = problem.h.prox(gamma, x - gamma * problem.f.grad(x)), steps + 1
        assert steps >= (20 * seeds if mu else 2 * seeds)

    def test_no_finite_breakpoint(self):
        # x > 0 and g < 0: every coordinate moves away from the orthant's kink, so the sweep has one piece,
        # unbounded below only when no moving coordinate has curvature
        params = ClassParams(0.0, 2.0)
        for d, unbounded in (([1.0, 2.0, 0.5], False), ([1.0, 0.0, 0.5], False), ([0.0, 0.0, 0.0], True)):
            for h in (NonnegIndicator(3), BoxIndicator([0.0] * 3, [np.inf] * 3)):
                problem = CompositeProblem(DiagonalQuadratic(d, [-5.0, -1.0, -4.0], params), h)
                x = np.array([1.0, 0.5, 2.0])
                assert np.isinf(h.prox_path(x, problem.f.grad(x))[0]).all()
                assert (_same_step(problem, x) is None) == unbounded

    def test_unbounded_last_piece(self):
        # coordinate 0 has no curvature and moves outwards forever; coordinate 1 reaches 0 first
        f = DiagonalQuadratic([0.0, 1.0], [-1.0, -0.8], ClassParams(0.0, 1.0))
        for h in (L1Norm(0.5, 2), NonnegIndicator(2), LinearPlusNonnegIndicator([0.25, 0.0])):
            problem, x = CompositeProblem(f, h), np.array([1.0, 1.0])
            assert np.isfinite(h.prox_path(x, problem.f.grad(x))[0]).any()
            assert _same_step(problem, x) is None

    @pytest.mark.parametrize("h_kind", H_KINDS)
    def test_start_at_the_optimum(self, h_kind):
        # the prox path stays put, so every piece is flat and both fall back to 1/L; with h = 0 the
        # gradient at the float optimum is rounding noise, and the closed form takes a step along it
        rng = np.random.default_rng(H_KINDS.index(h_kind))
        for dim in (1, 8, 1000):
            problem, _ = _oracle_instance(h_kind, dim, 1.0, False, rng)
            gamma = _same_step(problem, problem.optimum()[0])
            assert gamma is not None and (h_kind == "zero" or gamma == 1 / problem.params.L)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestRowValues:
    """Each oracle states its value once, over rows: bit-identical to the per-point formulas of helpers.value_oracle."""

    def _check_run(self, problem, x0, N, nb):
        gamma = 1.0 / problem.f.params.L
        trace = run(problem, gamma, x0, N)
        assert (trace._rerun is None) == (nb == N + 1)
        X, G, S = trace.X, trace.G, trace.S  # several blocks: the rebuild also checks F against the block-wise column
        want = [value_oracle(problem, x) for x in X]
        assert _bits(trace.F) == _bits(want)
        assert _bits(problem._values(X)) == _bits(want)
        assert _bits([problem.value(x) for x in X]) == _bits(want)
        for part in (problem.f, problem.h):
            assert _bits(part._values(X)) == _bits([value_oracle(part, x) for x in X])
            assert _bits([part.value(x) for x in X]) == _bits([value_oracle(part, x) for x in X])
        for k, gamma in enumerate(trace.gammas):
            x, s = pgm_step(problem, gamma, X[k])
            assert x.tobytes() == X[k + 1].tobytes() and s.tobytes() == S[k + 1].tobytes()
            assert s.tobytes() == ((X[k] - X[k + 1]) / gamma - G[k]).tobytes()

    @pytest.mark.parametrize("h_kind", H_KINDS)
    @pytest.mark.parametrize("f_kind", ["scaled", "diagonal"])
    @pytest.mark.parametrize("dim,N,nb", [(1, 6, 7), (8, 6, 7), (20_000, 6, 3), (70_000, 3, 1)])
    def test_run_matches_value_oracle(self, f_kind, h_kind, dim, N, nb):
        # dim 2e4: blocks of 3, 3 and 1 rows; dim 7e4: one row per block
        assert min(N + 1, max(1, engine._BLOCK // dim)) == nb
        self._check_run(*_catalog_problem(f_kind, h_kind, dim), N, nb)

    @pytest.mark.parametrize("h_kind", H_KINDS)
    @pytest.mark.parametrize("dim,block", [(1, None), (8, None), (600, 3 * 600), (600, 600)])
    def test_dense_run_matches_value_oracle(self, monkeypatch, h_kind, dim, block):
        # the dense A of dim 2e4 would take 3.2 GB: blocks of 3, 3 and 1 rows, and of one row, come from a smaller block
        if block is not None:
            monkeypatch.setattr(engine, "_BLOCK", block)
        self._check_run(*_catalog_problem("dense", h_kind, dim), 6, min(7, (block or engine._BLOCK) // dim))

    @pytest.mark.parametrize("f_kind", F_KINDS)
    @pytest.mark.parametrize("h_kind", H_KINDS)
    def test_rows_off_the_domain_and_the_float_range(self, f_kind, h_kind):
        problem, x0 = _catalog_problem(f_kind, h_kind, 4)
        X = np.array([x0, -np.abs(x0) - 3.0, np.full(4, 1e308), [np.nan, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            for fn in (problem, problem.f, problem.h):
                assert _bits(fn._values(X)) == _bits([value_oracle(fn, x) for x in X])
                assert _bits(fn._values(X[:0])) == b""
        # of the finite rows, the second lies below every lower bound and the third above every box; the
        # third's ||x||_1 overflows inside the domain
        outside = {"zero": [0, 0, 0], "nonneg": [0, 1, 0], "box": [0, 1, 1], "l1": [0, 0, 0], "linear": [0, 1, 0]}
        assert problem.h._outside(X[:3]).tolist() == [bool(o) for o in outside[h_kind]]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("kind", ["zero", "l1"])
    def test_non_finite_start_rejected(self, kind):
        problem = CompositeProblem(
            random_composite(ClassParams(1.0, 10.0), 2, "zero", 0)[0].f,
            Zero(2) if kind == "zero" else L1Norm(0.5, 2),
        )
        for bad in ([np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="x0 must be finite"):
                run(problem, 0.1, bad, 3)
            with pytest.raises(ValueError, match="x0 must be finite"):
                run_exact_line_search(problem, bad, 3)

    @pytest.mark.parametrize("kind", ["zero", "nonneg", "box", "l1"])
    def test_line_search_rejects_non_finite_point(self, kind):
        problem, _ = random_composite(ClassParams(1.0, 10.0), 3, kind, 0)
        for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [0.5, -np.inf, 0.5]):
            with pytest.raises(ValueError, match="x_k must be finite"):
                exact_line_search_step(problem, bad)

    @pytest.mark.parametrize("kind", ["zero", "nonneg", "box", "l1"])
    def test_public_step_rejects_non_finite_point(self, kind):
        problem, _ = random_composite(ClassParams(1.0, 10.0), 3, kind, 0)
        for bad in ([np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [1.0, -np.inf, 1.0]):
            with pytest.raises(ValueError, match="x_k must be finite"):
                pgm_step(problem, 0.1, bad)
            with pytest.raises(ValueError, match="x_k must be finite"):
                residual_line_search_step(problem.f, bad)

    @pytest.mark.parametrize(
        "measure,a,gamma,x0,optimum",
        [
            # F(x0) is finite each time, and numpy's overflow warning would be an error here
            ("residual_grad_sq", 1e300, 1e-300, 1.0, (0.0, 0.0)),  # the gradient 1e300, squared
            ("dist_sq", 1.0, 0.5, -1e154, (1e154, 0.0)),
            ("func_gap", 1.0, 0.5, 1.3e154, (0.0, -1e308)),
        ],
    )
    def test_measure_past_the_float_range_rejected(self, measure, a, gamma, x0, optimum):
        problem = CompositeProblem(ScaledSqNorm(a, 1), Zero(1), known_optimum=([optimum[0]], optimum[1]))
        with pytest.raises(ValueError, match=f"^{measure} is not finite at k = 0: it leaves the float range$"):
            run(problem, gamma, [x0], 2)

    def test_non_finite_s0_rejected(self):
        # -inf lies in the normal cone of the orthant at the boundary
        f = random_composite(ClassParams(1.0, 10.0), 2, "zero", 0)[0].f
        problem = CompositeProblem(f, NonnegIndicator(2))
        x0 = np.array([0.0, 1.0])
        run(problem, 0.1, x0, 2, s0=[-5.0, 0.0])
        for bad in ([-np.inf, 0.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match="s0 must be finite"):
                run(problem, 0.1, x0, 2, s0=bad)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan, -np.inf])
    def test_non_finite_step_rejected(self, gamma):
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 3, "box", 0)
        with pytest.raises(ValueError, match="run requires"):
            run(problem, gamma, x0, 3)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["zero", "nonneg", "box", "l1"])
    def test_public_step_rejects_non_finite_gamma(self, kind, gamma):
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 3, kind, 0)
        with pytest.raises(ValueError, match="pgm_step requires"):
            pgm_step(problem, gamma, x0)

    def test_diverging_objective_raises_naming_k(self):
        # simulate --mu 1 --L 10 --gamma 0.5: outside the theory, F grows as 16^k and passes a float at k = 256
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 5, "zero", 0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"F\(x_k\) is not finite at k = 256"):
                run(problem, 0.5, x0, 400)
            trace = run(problem, 0.5, x0, 255)
        assert trace.outside_theory and np.isfinite(trace.F).all()

    def test_divergence_mid_block_names_its_k(self):
        # simulate --mu 1 --L 10 --gamma 0.5 --N 400 --dim 16000 --seed 0: blocks of 4 rows, and F passes a
        # float at k = 254, the third row of block 63; steps 255 and 256 of that block run on inf and NaN
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 16_000, "zero", 0)
        nb, k = engine._BLOCK // 16_000, 254
        assert k // nb > 0 and 0 < k % nb < nb - 1
        with pytest.raises(ValueError, match=rf"^F\(x_k\) is not finite at k = {k}: the iterates diverge$") as raised:
            run(problem, 0.5, x0, 400)
        assert raised.value.__context__ is None
        # the per-point oracle: each iterate by pgm_step, and F by its formula, until F leaves the float range
        x, first = x0, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while math.isfinite(value_oracle(problem, x)):
                x, first = problem.h.prox(0.5, x - 0.5 * problem.f.grad(x)), first + 1
        assert first == k

    def test_start_check_names_its_case(self):
        # x0 lies in the domain of h = ||.||_1, but h(x0) = 2e308 leaves the float range
        overflow = CompositeProblem(DiagonalQuadratic([1e-300, 1e-300]), L1Norm(1.0, 2))
        box = CompositeProblem(DiagonalQuadratic([1.0, 2.0]), BoxIndicator([0.0, 0.0], [1.0, 1.0]))
        cases = [
            (lambda: run(overflow, 0.1, [1e308, 1e308], 2), r"F\(x0\) is not finite: the start is beyond the float range"),
            (lambda: run_exact_line_search(overflow, [1e308, 1e308], 2),
             r"F\(x0\) is not finite: the start is beyond the float range"),
            (lambda: exact_line_search_step(overflow, [1e308, 1e308]),
             r"F\(x_k\) is not finite: the start is beyond the float range"),
            (lambda: run(box, 0.1, [2.0, 0.5], 2), "infeasible start: x0 is outside the domain of h"),
            (lambda: run_exact_line_search(box, [2.0, 0.5], 2), "infeasible start: x0 is outside the domain of h"),
            (lambda: exact_line_search_step(box, [2.0, 0.5]), "infeasible start: x_k is outside the domain of h"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$") as raised:
                call()
            assert raised.value.__context__ is None
        assert overflow.h.subgradient_membership([1e308, 1e308], [1.0, 1.0])  # in the domain, where h overflows

    @pytest.mark.parametrize("kind,seed", [("zero", 0), ("nonneg", 1), ("l1", 2)])
    def test_divergence_comes_before_a_failed_step(self, kind, seed):
        # the exact line search picks a NaN step past F(x0) = inf, in the block that F(x0) is reported at
        problem, x0 = random_composite(ClassParams(1.0, 10.0), 3, kind, seed)
        with pytest.raises(ValueError, match=r"^F\(x0\) is not finite: the start is beyond the float range$") as raised:
            run_exact_line_search(problem, x0 * 1e154, 5)
        assert raised.value.__suppress_context__


def _frozen_runs_digest(runner: str, kind: str) -> str:
    """SHA-256 of 24 traces and 72 line-search steps of one runner and one h.

    Each trace adds its X, G, S, F and gammas; each start x0 adds three
    public exact-line-search steps. At dim 2e4 a trace spans several blocks,
    so reading its rows runs the loop again.
    """
    digest = hashlib.sha256()
    for mu in (0.0, 1.0):
        for dim in (1, 8, 1000, 20_000):
            for seed in (0, 1, 2):
                problem, x0 = random_composite(ClassParams(mu, 10.0), dim, kind, seed)
                if runner == "fixed":
                    trace = run(problem, 0.15, x0, 12)
                else:
                    trace = run_exact_line_search(problem, x0, 12)
                for column in (trace.X, trace.G, trace.S, trace.F, np.array(trace.gammas)):
                    digest.update(column.tobytes())
                x = x0
                for _ in range(3):
                    gamma, x = exact_line_search_step(problem, x)
                    digest.update(np.array([gamma]).tobytes() + x.tobytes())
    return digest.hexdigest()


TRACE_DIGESTS = {
    ("fixed", "zero"): "f7bd89102aa6a9ff1d51934ff1a09027dd756fb9dc77e55a80c34678bff4a585",
    ("fixed", "nonneg"): "c28cbd9b506905a22e3ef4a8258e279cc82150121a359a410411ebcf99c1d5b3",
    ("fixed", "box"): "ee4ac140065ff6974d3f94ffcb3f73e40f0039b800ab543369d0f4cafb8d06d0",
    ("fixed", "l1"): "583eb58c2ca0247f05199c856dc0a15ac78082d3099a2c55332dca2520773c95",
    ("els", "zero"): "f7f7e1953f2d6972b28998508a2b2a2afd027596fc82a39255b316dd06f4d218",
    ("els", "nonneg"): "6c1da8f6fb1377d439984e71aa69773f2430619ee74881d917a5089d36dd0ba7",
    ("els", "box"): "fafb2fb7626fe36da4553edea770ebfc964713fd2d8053efadf48fe150245e63",
    ("els", "l1"): "5f9223799d40b541f7577df52a75833f2e340d64aaba49d546fd39b4d50fe1c7",
}
DENSE_DIGEST = "595059a5e09acff4dfbc2847b5c81b9fc295ee85b5759164e6eba68c0a62c536"


class TestFrozenTraces:
    """Bit-identical traces and line-search steps: digests pinned before the loop took a step-size rule."""

    @pytest.mark.parametrize("runner,kind", list(TRACE_DIGESTS))
    def test_traces(self, runner, kind):
        assert _frozen_runs_digest(runner, kind) == TRACE_DIGESTS[runner, kind]

    def test_dense_quadratic_line_search(self):
        f = DenseQuadratic(np.array([[2.0, 0.5], [0.5, 1.5]]), [1.0, -2.0])
        gamma, x1 = exact_line_search_step(CompositeProblem(f, Zero(2)), np.array([0.3, -0.7]))
        assert hashlib.sha256(np.array([gamma]).tobytes() + x1.tobytes()).hexdigest() == DENSE_DIGEST
