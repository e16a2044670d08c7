import math
import warnings

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
    MeasureKind,
    NonnegIndicator,
    ProxFunction,
    ScaledSqNorm,
    Zero,
    check_interpolation,
    random_composite,
    random_instance,
    run,
)
from proxrates.smooth import relaxed_distance_condition

from helpers import optimum_oracle


class TestOracles:
    def test_isotropic_value_grad(self):
        mu = 0.7
        f = ScaledSqNorm(mu, 3, ClassParams(mu, 2.0))
        x = np.array([1.0, -2.0, 0.5])
        v, g = f.value_grad(x)
        assert v == pytest.approx(0.5 * mu * float(x @ x), rel=1e-15)
        np.testing.assert_allclose(g, mu * x)

    def test_diagonal_with_linear_term(self):
        f = DiagonalQuadratic([1.0], [1 / 15], ClassParams(1, 2))
        v, g = f.value_grad(np.array([1.0]))
        assert v == pytest.approx(0.5 + 1 / 15, rel=1e-15)
        assert g[0] == pytest.approx(1 + 1 / 15, rel=1e-15)

    def test_homogeneous_origin(self):
        f = DenseQuadratic(np.diag([1.0, 2.0]), None, ClassParams(1, 2))
        v, g = f.value_grad(np.zeros(2))
        assert v == 0.0
        np.testing.assert_array_equal(g, np.zeros(2))

    def test_gradient_is_exact_for_quadratics(self):
        rng = np.random.default_rng(5)
        f = random_instance(ClassParams(0.5, 4.0), 6, seed=9)
        for _ in range(20):
            x, v, t = rng.normal(size=6), rng.normal(size=6), rng.uniform(-2, 2)
            lhs = f.value(x + t * v)
            rhs = f.value(x) + t * float(f.grad(x) @ v) + 0.5 * t * t * float(v @ f.hess_vec(v))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("mu,L", [(1.0, 2.0), (1e6, 1e8), (1e-8, 1e-6)])
    def test_dense_spectrum_checked_up_to_eigvalsh_rounding(self, mu, L):
        # a rotated diag(mu, ..., L) at any scale: eigvalsh returns its ends only up to rounding
        for seed in range(6):
            Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(6, 6)))
            A = Q @ np.diag(np.linspace(mu, L, 6)) @ Q.T
            A = (A + A.T) / 2  # exactly symmetric: a_ij + a_ji is a_ji + a_ij
            assert DenseQuadratic(A, None, ClassParams(mu, L)).params == ClassParams(mu, L)
            with pytest.raises(ValueError, match="spectrum must lie within"):
                DenseQuadratic(A * (1 + 1e-9), None, ClassParams(mu, L))

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            DiagonalQuadratic([0.5, 3.0], None, ClassParams(1, 2))
        with pytest.raises(ValueError):
            ScaledSqNorm(3.0, 2, ClassParams(1, 2))


def _grad_oracle(f, x):
    """grad f(x) as one array expression per catalog f, into a new array."""
    if isinstance(f, ScaledSqNorm):
        return f.a * x
    if isinstance(f, DiagonalQuadratic):
        return f.d * x + f.b
    return f.A @ x + f.b


class TestGradInto:
    """_grad_into, the one statement of each gradient, which the PGM loop writes into G's row.

    It writes the array expression of grad bit for bit, signed zeros and
    non-finite entries included, and grad keeps its check and its message.
    """

    @staticmethod
    def _members(dim, rng):
        M = rng.normal(size=(dim, dim))
        params = ClassParams(0.0, 1e3)
        return [
            ScaledSqNorm(0.7, dim, params),
            ScaledSqNorm(0.0, dim, params),
            random_instance(ClassParams(0.5, 4.0), dim, seed=dim),
            DiagonalQuadratic(np.resize([0.0, 2.0, 1e-300], dim), np.resize([-0.0, 0.0, 1.5], dim), params),
            DenseQuadratic(M @ M.T, rng.normal(size=dim)),
            DenseQuadratic(np.zeros((dim, dim)), np.resize([0.0, -0.0], dim), params),
        ]

    @pytest.mark.parametrize("dim", [1, 3, 40])
    def test_matches_the_array_expression(self, dim):
        rng = np.random.default_rng(dim)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
        points = [rng.normal(size=dim) * 3 for _ in range(4)]
        points += [np.resize(np.roll(specials, k), dim) for k in range(len(specials))]
        with np.errstate(invalid="ignore", over="ignore"):
            for f in self._members(dim, rng):
                for x in points:
                    expected = _grad_oracle(f, x).tobytes()
                    before = x.tobytes()
                    assert f.grad(x).tobytes() == expected
                    out = np.full(dim, 7.0)
                    assert f._grad_into(x, out) is out and out.tobytes() == expected
                    assert x.tobytes() == before

    def test_grad_message(self):
        for f in self._members(3, np.random.default_rng(0)):
            with pytest.raises(ValueError) as info:
                f.grad(np.zeros(4))
            assert str(info.value) == "expected point of shape (3,), got (4,)"
            assert f.grad([1, 2, 3]).dtype == np.float64


class TestRandomInstance:
    def test_endpoints_included(self):
        f = random_instance(ClassParams(1, 10), 5, seed=42)
        assert 1.0 in f.d and 10.0 in f.d
        assert np.all((f.d >= 1.0) & (f.d <= 10.0))

    def test_degenerate_class(self):
        f = random_instance(ClassParams(3, 3), 2, seed=0)
        np.testing.assert_array_equal(f.d, [3.0, 3.0])

    def test_deterministic_under_seed(self):
        f1 = random_instance(ClassParams(1, 2), 3, seed=7)
        f2 = random_instance(ClassParams(1, 2), 3, seed=7)
        np.testing.assert_array_equal(f1.d, f2.d)
        np.testing.assert_array_equal(f1.b, f2.b)

    def test_dim1_falls_back_to_mu(self):
        f = random_instance(ClassParams(1, 10), 1, seed=0)
        np.testing.assert_array_equal(f.d, [1.0])
        assert float(f.d.max()) == 1.0  # effective smoothness is mu, not the declared L


class TestInterpolation:
    def test_members_pass(self):
        params = ClassParams(1, 10)
        rng = np.random.default_rng(0)
        for seed in range(5):
            f = random_instance(params, 4, seed)
            pts = rng.normal(size=(6, 4)) * 2
            assert check_interpolation(f, params, list(pts)) >= -1e-12

    def test_isotropic_endpoints_pass(self):
        params = ClassParams(1, 10)
        pts = [np.array([1.0, 0.0]), np.array([-0.5, 2.0])]
        for a in (1.0, 10.0):
            f = ScaledSqNorm(a, 2, params)
            assert check_interpolation(f, params, pts) >= -1e-12

    def test_too_smooth_function_violates(self):
        params = ClassParams(1, 2)
        f = ScaledSqNorm(3.0, 2)  # declares its own class; checked against (1, 2)
        pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert check_interpolation(f, params, pts) < 0

    def test_three_point_set_passes(self):
        params = ClassParams(1, 2)
        f = DiagonalQuadratic([1.0, 2.0], None, params)
        pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2)]
        assert check_interpolation(f, params, pts) >= -1e-12

    def test_degenerate_class_rejected(self):
        params = ClassParams(2, 2)
        f = ScaledSqNorm(2.0, 2, params)
        with pytest.raises(ValueError):
            check_interpolation(f, params, [np.zeros(2), np.ones(2)])

    def test_needs_two_points(self):
        params = ClassParams(1, 2)
        f = ScaledSqNorm(1.0, 2, params)
        with pytest.raises(ValueError):
            check_interpolation(f, params, [np.zeros(2)])


class TestRelaxedDistanceCondition:
    def test_holds_for_members(self):
        params = ClassParams(1, 10)
        rng = np.random.default_rng(4)
        for seed in range(5):
            f = random_instance(params, 4, seed)
            problem = CompositeProblem(f, Zero(4))
            x_star, _ = problem.optimum()
            for _ in range(20):
                x = rng.normal(size=4) * 3
                assert relaxed_distance_condition(f, params, x, x_star) >= -1e-10

    def test_rank_deficient_quadratic_satisfies_it(self):
        # a singular quadratic is outside every strongly convex class, yet the
        # condition holds against the projection onto its solution set when mu
        # is its smallest nonzero eigenvalue
        mu, L = 2.0, 10.0
        params = ClassParams(mu, L)
        f = DiagonalQuadratic([0.0, mu, L], None, ClassParams(0.0, L))
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.normal(size=3) * 2
            x_star = np.array([x[0], 0.0, 0.0])  # projection: null space is e1
            assert relaxed_distance_condition(f, params, x, x_star) >= -1e-10
        # and it genuinely fails interpolation against F_{mu,L}
        pts = [np.array([1.0, 0.0, 0.0]), np.zeros(3)]
        assert check_interpolation(f, params, pts) < 0


class TestCompositeProblem:
    def _problems(self):
        params = ClassParams(1.0, 4.0)
        f = DiagonalQuadratic([1.0, 4.0, 2.5], [0.3, -1.2, 0.8], params)
        yield CompositeProblem(f, Zero(3))
        yield CompositeProblem(f, NonnegIndicator(3))
        yield CompositeProblem(f, BoxIndicator([-0.5, 0.0, 0.1], [0.5, 1.0, 0.2]))
        yield CompositeProblem(f, L1Norm(0.7, 3))
        yield CompositeProblem(f, LinearPlusNonnegIndicator([0.2, -0.4, 0.1]))

    def test_fixed_point_optimality(self):
        for problem in self._problems():
            for gamma in (0.05, 0.3, 1.0 / 4.0, 2.0 / 5.0):
                assert problem.fixed_point_residual(gamma) <= 1e-12

    def test_optimum_matches_brute_force_1d(self):
        params = ClassParams(1.0, 2.0)
        f = DiagonalQuadratic([1.4], [0.9], params)
        for h in (Zero(1), NonnegIndicator(1), L1Norm(0.5, 1), LinearPlusNonnegIndicator([-0.3])):
            problem = CompositeProblem(f, h)
            x_star, F_star = problem.optimum()
            # minimizing F == prox of (f scaled into the quadratic term): use a
            # tiny-step fixed point instead; brute force on the 1-d objective
            grid = np.linspace(-5, 5, 20001)
            vals = [f.value(np.array([t])) + h.value(np.array([t])) for t in grid]
            t_best = grid[int(np.argmin(vals))]
            assert x_star[0] == pytest.approx(t_best, abs=1e-3)
            assert F_star <= min(vals) + 1e-12

    def test_known_optimum_f_star_consistency(self):
        problem = CompositeProblem(
            ScaledSqNorm(1.0, 2, ClassParams(1, 2)), Zero(2), known_optimum=(np.zeros(2), 0.0)
        )
        x_star, F_star = problem.optimum()
        assert problem.value(x_star) == F_star

    def test_dense_quadratic_unconstrained_optimum(self):
        A = np.array([[2.0, 0.5], [0.5, 1.5]])
        f = DenseQuadratic(A, [1.0, -2.0])
        problem = CompositeProblem(f, Zero(2))
        x_star, _ = problem.optimum()
        np.testing.assert_allclose(f.grad(x_star), np.zeros(2), atol=1e-12)

    def test_dense_quadratic_with_constraint_has_no_closed_form(self):
        f = DenseQuadratic(np.array([[2.0, 0.5], [0.5, 1.5]]), [1.0, -2.0])
        problem = CompositeProblem(f, NonnegIndicator(2))
        with pytest.raises(ValueError):
            problem.optimum()
        assert problem.try_optimum() is None

    def test_failed_solve_is_not_retried(self, monkeypatch):
        import proxrates.smooth as smooth

        solves = []
        solve = smooth._solve_catalog_optimum
        monkeypatch.setattr(smooth, "_solve_catalog_optimum", lambda f, h: solves.append(h) or solve(f, h))
        f = DenseQuadratic(np.array([[2.0, 0.5], [0.5, 1.5]]), [1.0, -2.0])
        problem = CompositeProblem(f, NonnegIndicator(2))
        trace = run(problem, 0.3, np.ones(2), 5)
        for k in range(len(trace)):
            for kind in MeasureKind:
                trace.measure_floor(kind, k)
        for _ in range(3):
            with pytest.raises(ValueError, match="^f of type DenseQuadratic is not separable") as raised:
                problem.optimum()
            assert raised.value.__context__ is None
        assert problem.try_optimum() is None
        assert len(solves) == 1

    def test_optimum_memo_is_not_a_constructor_argument(self):
        f = DiagonalQuadratic([1.0, 4.0, 2.5], [0.3, -1.2, 0.8], ClassParams(1.0, 4.0))
        for value in ((np.zeros(3), -5.0), "unbounded below on the orthant"):
            with pytest.raises(TypeError, match="_optimum"):
                CompositeProblem(f, Zero(3), _optimum=value)
        x_star, F_star = CompositeProblem(f, Zero(3)).optimum()
        np.testing.assert_allclose(f.grad(x_star), np.zeros(3), atol=1e-12)
        assert F_star < 0

    def test_equality_ignores_the_optimum_memo(self):
        f = DiagonalQuadratic([1.0, 4.0, 2.5], [0.3, -1.2, 0.8], ClassParams(1.0, 4.0))
        h = NonnegIndicator(3)
        solved, fresh = CompositeProblem(f, h), CompositeProblem(f, h)
        solved.optimum()
        assert solved == fresh and repr(solved) == repr(fresh)
        dense = DenseQuadratic(np.array([[2.0, 0.5], [0.5, 1.5]]), [1.0, -2.0])
        unsolvable = CompositeProblem(dense, NonnegIndicator(2))
        fresh = CompositeProblem(dense, unsolvable.h)
        assert unsolvable.try_optimum() is None and unsolvable == fresh and repr(unsolvable) == repr(fresh)

    def test_params_are_those_of_f(self):
        f = DiagonalQuadratic([1.0, 4.0, 2.5], [0.3, -1.2, 0.8], ClassParams(0.5, 5.0))
        with pytest.raises(TypeError, match="params"):
            CompositeProblem(f, Zero(3), params=ClassParams(1.0, 4.0))
        problem = CompositeProblem(f, Zero(3))
        assert problem.params is f.params
        with pytest.raises(AttributeError):
            problem.params = ClassParams(1.0, 4.0)

    def test_unbounded_composite_rejected(self):
        f = DiagonalQuadratic([0.0], [-1.0], ClassParams(0.0, 1.0))
        with pytest.raises(ValueError):
            CompositeProblem(f, NonnegIndicator(1)).optimum()

    def test_random_composite_feasible_start(self):
        for kind in ("zero", "nonneg", "box", "l1"):
            problem, x0 = random_composite(ClassParams(1, 10), 6, kind, seed=3)
            assert math.isfinite(problem.value(x0))
            assert problem.fixed_point_residual(0.1) <= 1e-12


def _assert_optimum_matches_oracle(problem) -> bool:
    """optimum() equals the scalar oracle bit for bit, or raises its error; True when solved."""
    try:
        expected = optimum_oracle(problem)
    except ValueError as exc:
        assert "unbounded" in str(exc)
        with pytest.raises(ValueError) as info:
            problem.optimum()
        assert str(info.value) == str(exc)
        return False
    x_star, F_star = problem.optimum()
    assert x_star.tobytes() == expected.tobytes()
    assert np.float64(F_star).tobytes() == np.float64(problem.value(expected)).tobytes()
    return True


def _flat_problems():
    """Zero-curvature coordinates reaching every branch of every catalog h.

    Each h comes with a slope it absorbs (bounded) and one it cannot
    (unbounded); curved coordinates ride along, and a box bound is infinite.
    """
    params = ClassParams(0.0, 2.0)
    d = np.array([0.0, 0.0, 0.0, 2.0])

    def problem(b, h):
        return CompositeProblem(DiagonalQuadratic(d, b, params), h)

    inf = math.inf
    box = BoxIndicator([-1.0, -1.0, -inf, -inf], [2.0, inf, 3.0, inf])
    lin = LinearPlusNonnegIndicator([0.3, -0.2, 0.0, 0.5])
    bounded = [
        (problem([0.0, -0.0, 0.0, 1.0], Zero(4)), [0.0, 0.0, 0.0, -0.5]),
        (problem([0.0, -0.0, 0.4, -1.0], NonnegIndicator(4)), [0.0, 0.0, 0.0, 0.5]),
        (problem([0.5, -0.0, -0.7, 3.0], box), [-1.0, -1.0, 3.0, -1.5]),
        (problem([0.5, -0.5, 0.2, 2.0], L1Norm(0.5, 4)), [0.0, 0.0, 0.0, -0.75]),
        (problem([-0.3, 0.2, 0.0, -3.0], lin), [0.0, 0.0, 0.0, 1.25]),
    ]
    unbounded = [
        problem([0.0, 0.0, 1e-300, 1.0], Zero(4)),
        problem([0.0, 0.0, -1e-300, 1.0], NonnegIndicator(4)),
        problem([0.0, -0.1, 0.0, 1.0], box),  # slope toward hi = inf
        problem([0.0, 0.0, 0.1, 1.0], box),  # slope toward lo = -inf
        problem([0.0, 0.50000001, 0.0, 1.0], L1Norm(0.5, 4)),
        problem([0.0, 0.1, 0.0, 1.0], lin),
    ]
    return bounded, unbounded


class TestClosedFormOptimum:
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("dim", [1, 8, 1000])
    @pytest.mark.parametrize("kind", ["zero", "nonneg", "box", "l1", "linear_nonneg"])
    def test_matches_scalar_oracle(self, kind, dim, mu):
        solved = 0
        for seed in range(4):
            if kind == "linear_nonneg":
                f = random_instance(ClassParams(mu, 4.0), dim, seed)
                c = np.random.default_rng(seed).uniform(-1.0, 1.0, size=dim)
                problem = CompositeProblem(f, LinearPlusNonnegIndicator(c))
            else:
                problem, _ = random_composite(ClassParams(mu, 4.0), dim, kind, seed)
            solved += _assert_optimum_matches_oracle(problem)
        assert solved == 4 or mu == 0.0  # mu > 0 leaves no zero-curvature coordinate

    def test_zero_curvature_branches(self):
        bounded, unbounded = _flat_problems()
        for problem, expected in bounded:
            assert _assert_optimum_matches_oracle(problem)
            np.testing.assert_array_equal(problem.optimum()[0], expected)
        for problem in unbounded:
            assert not _assert_optimum_matches_oracle(problem)
            assert problem.try_optimum() is None

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (-math.inf, math.inf), (-3.0, math.inf)])
    def test_flat_coordinate_without_slope_in_unbounded_box(self, lo, hi):
        """A zero-curvature coordinate with no slope is constant, so an infinite box end leaves F* finite."""
        f = DiagonalQuadratic([0.0, 1.0], [0.0, 1.0], ClassParams(0.0, 1.0))
        problem = CompositeProblem(f, BoxIndicator([lo, -2.0], [hi, 1.0]))
        assert _assert_optimum_matches_oracle(problem)
        x_star, F_star = problem.optimum()
        grid = np.stack(np.meshgrid(np.linspace(max(lo, -4.0), min(hi, 4.0), 41), np.linspace(-2.0, 1.0, 61)), -1)
        grid_min = min(problem.value(x) for x in grid.reshape(-1, 2))
        assert F_star == -0.5 and F_star <= grid_min < F_star + 1e-2
        assert problem.h.value(x_star) == 0.0
        trace = run(problem, 1.0, [0.0, 0.0], 3)
        assert trace.measure(MeasureKind.FUNC_GAP, 0) == 0.5
        assert trace.measure(MeasureKind.DISTANCE_SQ, 0) is not None

    def test_signed_zeros_pinned(self):
        params = ClassParams(0.0, 2.0)
        for d in ([1.0, 2.0], [0.0, 0.0]):
            f = DiagonalQuadratic(d, [0.0, -0.0], params)
            hs = (
                Zero(2),
                NonnegIndicator(2),
                BoxIndicator([-1.0, -1.0], [1.0, 1.0]),
                BoxIndicator([0.0, -0.0], [1.0, 1.0]),
                L1Norm(0.5, 2),
                LinearPlusNonnegIndicator([0.0, -0.0]),
            )
            for h in hs:
                assert _assert_optimum_matches_oracle(CompositeProblem(f, h))
        # -b/d keeps the sign flip of b = +-0 on a curved coordinate without h
        x_star, _ = CompositeProblem(DiagonalQuadratic([1.0, 2.0], [0.0, -0.0], params), Zero(2)).optimum()
        assert list(np.signbit(x_star)) == [True, False]

    def test_minimizer_beyond_the_float_range(self):
        # a vertex -b/d past the float range, or an optimal value past it, is no optimum: no numpy warning,
        # try_optimum reads None and a run reports no distance or gap instead of failing on them
        params = ClassParams(0.0, 1.0)
        cases = [
            (DiagonalQuadratic([1e-300], [1e10], params), Zero(1), "the optimum is beyond the float range"),
            (DiagonalQuadratic([1e-300, 1.0], [1e10, 0.5], params), L1Norm(0.5, 2),
             "the optimum is beyond the float range"),
            (DiagonalQuadratic([1e-300, 0.0], [-1e10, 0.0], params), NonnegIndicator(2),
             "the optimum is beyond the float range"),
            (DiagonalQuadratic([1.0], [1e200], params), Zero(1), "the optimal value is beyond the float range"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, h, message in cases:
                problem = CompositeProblem(f, h)
                with pytest.raises(ValueError) as info:
                    problem.optimum()
                assert str(info.value) == message
                assert problem.try_optimum() is None
            problem = CompositeProblem(*cases[0][:2])
            trace = run(problem, 0.5, [0.0], 3)
            assert all(trace.measure(m, k) is None for m in (MeasureKind.DISTANCE_SQ, MeasureKind.FUNC_GAP)
                       for k in range(4))
            # a vertex past the float range that h maps back into it gives a finite optimum
            f = DiagonalQuadratic([1e-300, 1e-300], [-1e10, 1e10], params)
            for h, expected in ((BoxIndicator([-1.0, -1.0], [2.0, 2.0]), [2.0, -1.0]),
                                (L1Norm(0.5, 2), None),
                                (LinearPlusNonnegIndicator([2e10, 0.0]), [0.0, 0.0])):
                if expected is None:
                    assert CompositeProblem(f, h).try_optimum() is None
                else:
                    assert CompositeProblem(f, h).optimum()[0].tolist() == expected

    def test_isotropic_flat_and_unknown_h(self):
        f = ScaledSqNorm(0.0, 3, ClassParams(0.0, 1.0))
        for h in (Zero(3), NonnegIndicator(3), BoxIndicator([-1.0] * 3, [1.0] * 3), L1Norm(0.5, 3)):
            assert _assert_optimum_matches_oracle(CompositeProblem(f, h))

        class Other(ProxFunction):
            dim = 3

        problem = CompositeProblem(DiagonalQuadratic([1.0, 1.0, 1.0]), Other())
        with pytest.raises(ValueError, match="no closed-form optimum for h of type Other"):
            problem.optimum()
        assert problem.try_optimum() is None


class TestErrorPaths:
    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(lambda: DiagonalQuadratic([[1.0]]), "d must be a nonempty 1-d array", id="diag-2d"),
            pytest.param(lambda: DiagonalQuadratic([]), "d must be a nonempty 1-d array", id="diag-empty"),
            pytest.param(lambda: DiagonalQuadratic([1.0, 2.0], [0.0]), "b must match the dimension of d",
                         id="diag-b"),
            pytest.param(lambda: DiagonalQuadratic([1.0, 5.0], None, ClassParams(1.0, 2.0)),
                         "diagonal entries must lie within", id="diag-class"),
            pytest.param(lambda: DenseQuadratic([1.0, 2.0]), "A must be a square matrix", id="dense-1d"),
            pytest.param(lambda: DenseQuadratic(np.ones((2, 3))), "A must be a square matrix", id="dense-shape"),
            pytest.param(lambda: DenseQuadratic([[1.0, 1.0], [0.0, 1.0]]), "A must be symmetric", id="dense-sym"),
            # grad (A x + b) of an A 5e-6 off symmetric is not the derivative of value
            pytest.param(lambda: DenseQuadratic([[2.0, 1.0 + 5e-6], [1.0, 2.0]]), "A must be symmetric",
                         id="dense-sym-5e-6"),
            # curvatures are inputs, so nothing rounds: 500 L, or one ulp above L, is outside [mu, L]
            pytest.param(lambda: DiagonalQuadratic([5e-10], None, ClassParams(0.0, 1e-12)),
                         "diagonal entries must lie within", id="diag-class-tiny-L"),
            pytest.param(lambda: ScaledSqNorm(0.1 + 0.2, 2, ClassParams(0.1, 0.3)),
                         "curvature must lie within", id="isotropic-class-one-ulp"),
            pytest.param(lambda: DenseQuadratic(np.eye(2), [0.0]), "b must match the dimension of A",
                         id="dense-b"),
            pytest.param(lambda: DenseQuadratic(np.eye(2) * 3.0, None, ClassParams(1.0, 2.0)),
                         "spectrum must lie within", id="dense-class"),
            pytest.param(lambda: DiagonalQuadratic([math.nan, 1.5], None, ClassParams(1.0, 2.0)), "d must be finite",
                         id="diag-d-nan"),
            pytest.param(lambda: DiagonalQuadratic([1.0, math.inf], None, ClassParams(1.0, 2.0)), "d must be finite",
                         id="diag-d-inf"),
            pytest.param(lambda: DiagonalQuadratic([math.nan, 1.5]), "d must be finite", id="diag-d-nan-no-params"),
            pytest.param(lambda: DiagonalQuadratic([1.0, 1.5], [math.nan, 0.0], ClassParams(1.0, 2.0)),
                         "b must be finite", id="diag-b-nan"),
            pytest.param(lambda: DiagonalQuadratic([1.0, 1.5], [0.0, math.inf], ClassParams(1.0, 2.0)),
                         "b must be finite", id="diag-b-inf"),
            pytest.param(lambda: DenseQuadratic([[math.nan, 0.0], [0.0, 1.0]]), "A must be finite", id="dense-A-nan"),
            pytest.param(lambda: DenseQuadratic([[1.0, math.inf], [math.inf, 1.0]]), "A must be finite",
                         id="dense-A-inf"),
            pytest.param(lambda: DenseQuadratic(np.eye(2), [math.nan, 0.0]), "b must be finite", id="dense-b-nan"),
            pytest.param(lambda: DenseQuadratic(np.eye(2), [0.0, math.inf]), "b must be finite", id="dense-b-inf"),
            pytest.param(lambda: CompositeProblem(DiagonalQuadratic([1.0, 2.0]), Zero(3)),
                         "f and h dimensions disagree", id="composite-dims"),
            pytest.param(lambda: random_instance(ClassParams(1.0, 2.0), 0, 0), "dim must be >= 1",
                         id="random-dim-0"),
            pytest.param(lambda: random_composite(ClassParams(1.0, 2.0), 3, "huber", 0), "unknown h kind 'huber'",
                         id="random-h-kind"),
            pytest.param(
                lambda: relaxed_distance_condition(ScaledSqNorm(1.0, 1), ClassParams(1.0, 1.0), [1.0], [0.0]),
                "requires mu < L",
                id="relaxed-mu-eq-L",
            ),
        ],
    )
    def test_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize(
        "x_star,F_star",
        [
            pytest.param([0.0], 0.0, id="short-x"),
            pytest.param([[0.0, 0.0]], 0.0, id="row-x"),
            pytest.param([math.nan, 0.0], 0.0, id="nan-x"),
            pytest.param([0.0, -math.inf], 0.0, id="inf-x"),
            pytest.param([0.0, 0.0], math.inf, id="inf-F"),
            pytest.param([0.0, 0.0], math.nan, id="nan-F"),
        ],
    )
    def test_known_optimum_checked(self, x_star, F_star):
        # a bad optimum would otherwise surface from inside the loop's row sums, or as a measure out of range
        with pytest.raises(ValueError, match=r"^known_optimum must be a finite x\* of shape \(2,\) and a finite F\*$"):
            CompositeProblem(ScaledSqNorm(1.0, 2), Zero(2), known_optimum=(x_star, F_star))
