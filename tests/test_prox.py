import math
from fractions import Fraction

import numpy as np
import pytest

from proxrates import (
    BoxIndicator,
    ClassParams,
    DenseQuadratic,
    L1Norm,
    LinearPlusNonnegIndicator,
    NonnegIndicator,
    ProxFunction,
    ScaledSqNorm,
    Zero,
    random_composite,
)
from proxrates import engine

from helpers import brute_force_prox_1d, subdifferential_1d


def catalog_members(dim):
    rng = np.random.default_rng(dim)
    lo = rng.uniform(-2, 0, dim)
    return [
        Zero(dim),
        NonnegIndicator(dim),
        BoxIndicator(lo, lo + rng.uniform(0.5, 2, dim)),
        L1Norm(1.0, dim),
        L1Norm(0.3, dim),
        LinearPlusNonnegIndicator(rng.uniform(-1, 1, dim)),
    ]


class TestClosedForms:
    def test_zero_is_identity(self):
        h = Zero(2)
        np.testing.assert_array_equal(h.prox(0.7, [3.0, -1.0]), [3.0, -1.0])

    def test_orthant_projection(self):
        h = NonnegIndicator(2)
        np.testing.assert_array_equal(h.prox(0.5, [2.0, -3.0]), [2.0, 0.0])

    def test_soft_threshold(self):
        h = L1Norm(1.0, 2)
        np.testing.assert_allclose(h.prox(0.5, [2.0, -0.2]), [1.5, 0.0])

    def test_linear_orthant_shift(self):
        h = LinearPlusNonnegIndicator([0.4, -0.2])
        np.testing.assert_allclose(h.prox(1.0, [1.0, -0.1]), [0.6, 0.1])

    def test_box_clip(self):
        h = BoxIndicator([-1.0, 0.0], [1.0, 2.0])
        np.testing.assert_array_equal(h.prox(2.0, [5.0, -1.0]), [1.0, 0.0])


class TestValue:
    def test_indicator_outside_domain(self):
        assert math.isinf(NonnegIndicator(2).value([1.0, -1.0]))

    def test_l1(self):
        assert L1Norm(2.0, 2).value([1.0, -3.0]) == 8.0

    def test_linear_orthant(self):
        h = LinearPlusNonnegIndicator([1 / 15])
        assert h.value([1 / 5]) == pytest.approx(1 / 75, rel=1e-15)
        assert math.isinf(h.value([-1e-9]))


class TestMembership:
    def test_orthant_normal_cone(self):
        h = NonnegIndicator(2)
        assert h.subgradient_membership([0.0, 1.0], [-5.0, 0.0], tol=0)
        assert not h.subgradient_membership([0.0, 1.0], [1e-3, 0.0], tol=0)
        assert not h.subgradient_membership([0.0, 1.0], [0.0, 0.5], tol=0)

    def test_zero_subdifferential_is_origin(self):
        h = Zero(2)
        assert h.subgradient_membership([3.0, 4.0], [0.0, 0.0], tol=0)
        assert not h.subgradient_membership([3.0, 4.0], [0.1, 0.0], tol=0)

    def test_l1_subdifferential(self):
        h = L1Norm(1.0, 2)
        assert h.subgradient_membership([2.0, 0.0], [1.0, 0.3], tol=0)
        assert not h.subgradient_membership([2.0, 0.0], [0.9, 0.3], tol=0)
        assert not h.subgradient_membership([2.0, 0.0], [1.0, 1.3], tol=0)

    def test_membership_outside_domain_raises(self):
        with pytest.raises(ValueError):
            NonnegIndicator(1).subgradient_membership([-1.0], [0.0], tol=0)

    def test_box_membership(self):
        h = BoxIndicator([0.0, 0.0], [1.0, 1.0])
        assert h.subgradient_membership([0.0, 1.0], [-2.0, 3.0], tol=0)
        assert not h.subgradient_membership([0.0, 1.0], [2.0, 3.0], tol=0)
        assert h.subgradient_membership([0.5, 0.5], [0.0, 0.0], tol=0)

    def test_near_kink_is_not_on_it(self):
        # x is taken exactly: 1e-12 is not the kink at 0, whatever the tolerance on s
        h = L1Norm(1.0, 1)
        assert not h.subgradient_membership([1e-12], [0.0], tol=1e-9)
        assert h.subgradient_membership([1e-12], [1.0 + 1e-10], tol=1e-9)
        assert not NonnegIndicator(1).subgradient_membership([5e-324], [-1e10], tol=0)

    def test_membership_matches_exact_subdifferential_1d(self):
        # x on a kink (prox outputs) or inside a piece; s random, at an end of
        # [h'(x-), h'(x+)] or one ulp past it; exact answer from the value alone
        rng = np.random.default_rng(5)
        checked = 0
        for trial in range(300):
            scale = 10.0 ** rng.uniform(-3, 3)
            lo = rng.uniform(-2, 0) * scale
            hi = [lo, lo + rng.uniform(0.5, 2) * scale, math.inf][trial % 3]
            members = [
                Zero(1),
                NonnegIndicator(1),
                BoxIndicator([lo if trial % 5 else -math.inf], [hi]),
                L1Norm(rng.uniform(0, 2) * scale, 1),
                LinearPlusNonnegIndicator([rng.uniform(-1, 1) * scale]),
            ]
            for h in members:
                x = h.prox(rng.uniform(0.1, 3), rng.normal(size=1) * 2 * scale)
                left, right = subdifferential_1d(h, float(x[0]))
                ends = [e for e in (float(left), float(right)) if math.isfinite(e)]
                candidates = [rng.normal() * scale, *ends]
                candidates += [math.nextafter(e, d) for e in ends for d in (-math.inf, math.inf)]
                for s in candidates:
                    assert h.subgradient_membership(x, [s], tol=0) == (left <= s <= right), (h, x, s)
                    checked += 1
        assert checked > 5000

    def test_canonical_subgradient_is_member(self):
        rng = np.random.default_rng(11)
        for h in catalog_members(4):
            x = h.prox(1.0, rng.uniform(-2.0, 2.0, 4))  # prox output is feasible
            assert h.subgradient_membership(x, h.subgradient(x), tol=1e-12)


class TestArgumentErrors:
    def test_nonpositive_gamma(self):
        for h in catalog_members(3):
            with pytest.raises(ValueError):
                h.prox(0.0, np.zeros(3))
            with pytest.raises(ValueError):
                h.prox(-1.0, np.zeros(3))

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma(self, gamma):
        for h in catalog_members(3):
            with pytest.raises(ValueError, match="prox step size"):
                h.prox(gamma, np.ones(3))

    def test_dimension_mismatch(self):
        for h in catalog_members(3):
            with pytest.raises(ValueError):
                h.prox(1.0, np.zeros(4))

    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            BoxIndicator([1.0], [0.0])

    def test_l1_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            L1Norm(-0.1, 2)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_l1_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            L1Norm(weight, 2)

    def test_linear_rejects_non_finite_c(self):
        with pytest.raises(ValueError, match="c must be a finite 1-d array"):
            LinearPlusNonnegIndicator([math.nan, 1.0])

    @pytest.mark.parametrize("lo,hi", [([math.nan], [1.0]), ([0.0], [math.nan]), ([math.inf], [math.inf])])
    def test_box_rejects_nan_and_empty_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="neither NaN"):
            BoxIndicator(lo, hi)


class TestProperties:
    def test_nonexpansiveness(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            dim = int(rng.integers(1, 6))
            for h in catalog_members(dim):
                gamma = float(rng.uniform(0.01, 5.0))
                x = rng.normal(size=dim) * 3
                y = rng.normal(size=dim) * 3
                d_out = np.linalg.norm(h.prox(gamma, x) - h.prox(gamma, y))
                d_in = np.linalg.norm(x - y)
                assert d_out <= d_in + 1e-12

    def test_prox_residual_is_subgradient(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            dim = int(rng.integers(1, 6))
            for h in catalog_members(dim):
                gamma = float(rng.uniform(0.01, 5.0))
                x = rng.normal(size=dim) * 3
                p = h.prox(gamma, x)
                s = (x - p) / gamma
                assert h.subgradient_membership(p, s, tol=1e-12)

    def test_prox_matches_brute_force_1d(self):
        rng = np.random.default_rng(2)
        for h in catalog_members(1):
            for _ in range(20):
                gamma = float(rng.uniform(0.05, 3.0))
                x = float(rng.normal() * 2)
                expected = brute_force_prox_1d(h, gamma, x, -8.0, 8.0)
                got = h.prox(gamma, np.array([x]))[0]
                assert got == pytest.approx(expected, abs=1e-10)

    def test_subdifferential_monotonicity(self):
        # prox residuals are subgradients, so they must satisfy
        # <s_x - s_y, p_x - p_y> >= 0 for any two points
        rng = np.random.default_rng(3)
        for trial in range(100):
            dim = int(rng.integers(1, 5))
            for h in catalog_members(dim):
                gamma = float(rng.uniform(0.05, 2.0))
                x, y = rng.normal(size=dim) * 2, rng.normal(size=dim) * 2
                px, py = h.prox(gamma, x), h.prox(gamma, y)
                sx, sy = (x - px) / gamma, (y - py) / gamma
                assert float((sx - sy) @ (px - py)) >= -1e-12

    def test_prox_path_matches_prox(self):
        # the segment forms reproduce prox_{t h}(x - t g) and h along it, at
        # random steps, at every breakpoint and past each one
        rng = np.random.default_rng(4)
        for trial in range(50):
            dim = int(rng.integers(1, 6))
            for h in catalog_members(dim):
                x = h.prox(1.0, rng.normal(size=dim) * 2)  # feasible, often on a kink
                g = rng.normal(size=dim) * 2
                breaks, p0, p1, slope = h.prox_path(x, g)
                assert np.all(breaks[1:] >= breaks[:-1]) and np.all(breaks >= 0)
                kinks = breaks[np.isfinite(breaks) & (breaks > 0)]
                cols = np.arange(dim)
                for t in np.concatenate([rng.uniform(0.01, 5.0, 5), kinks, 1.5 * kinks]):
                    seg = np.sum(breaks < t, axis=0)
                    p = p0[seg, cols] + p1[seg, cols] * t
                    expected = h.prox(t, x - t * g)
                    np.testing.assert_allclose(p, expected, rtol=0, atol=1e-12 * (1 + t))
                    assert float(slope[seg, cols] @ p) == pytest.approx(h.value(expected), abs=1e-11 * (1 + t))


def _prox_oracle(h, gamma, x):
    """prox_{gamma h}(x) as one array expression per catalog h, into a new array."""
    if isinstance(h, Zero):
        return x.copy()
    if isinstance(h, NonnegIndicator):
        return np.maximum(x, 0.0)
    if isinstance(h, BoxIndicator):
        return np.clip(x, h.lo, h.hi)
    if isinstance(h, L1Norm):
        return np.sign(x) * np.maximum(np.abs(x) - gamma * h.weight, 0.0)
    return np.maximum(x - gamma * h.c, 0.0)


def _special_points(h, gamma, rng):
    """Random points, and points whose coordinates sit on h's kinks, on signed zeros and past the float range."""
    dim = h.dim
    kinks = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324]
    if isinstance(h, BoxIndicator):
        kinks += [*h.lo, *h.hi, *-h.lo]
    if isinstance(h, L1Norm):
        kinks += [gamma * h.weight, -gamma * h.weight, np.nextafter(gamma * h.weight, 0.0)]
    if isinstance(h, LinearPlusNonnegIndicator):
        kinks += [*(gamma * h.c), *(-gamma * h.c)]
    points = [rng.normal(size=dim) * 3 for _ in range(4)]
    for start in range(0, len(kinks), dim):
        x = rng.normal(size=dim)
        chunk = kinks[start : start + dim]
        x[: len(chunk)] = chunk
        points += [x, np.roll(x, 1)]
    return points


class TestProxInto:
    """_prox_into, the one statement of each prox, which the PGM loop applies in place.

    Into a fresh row or into its own input, it writes the array expression of
    prox bit for bit, signed zeros and non-finite entries included, and prox
    keeps its argument checks and their messages.
    """

    @staticmethod
    def _members(dim):
        inf = math.inf
        lo = np.resize([0.0, -0.0, -inf, -1.0], dim)
        hi = np.resize([1.0, inf, 0.0, -0.0], dim)
        return [*catalog_members(dim), BoxIndicator(lo, hi), L1Norm(0.0, dim),
                LinearPlusNonnegIndicator(np.resize([0.0, -0.0, 0.5, -2.0], dim))]

    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_matches_the_array_expression(self, dim):
        rng = np.random.default_rng(dim)
        with np.errstate(invalid="ignore", over="ignore"):
            for h in self._members(dim):
                for gamma in (0.3, 1.0, 2.5):
                    for x in _special_points(h, gamma, rng):
                        expected = _prox_oracle(h, gamma, x).tobytes()
                        before = x.tobytes()
                        assert h.prox(gamma, x).tobytes() == expected
                        out = np.full(dim, 7.0)
                        assert h._prox_into(gamma, x, out) is out and out.tobytes() == expected
                        assert x.tobytes() == before
                        y = x.copy()
                        assert h._prox_into(gamma, y, y) is y and y.tobytes() == expected

    def test_prox_returns_a_new_array(self):
        for h in self._members(3):
            x = np.array([0.5, -0.0, 2.0])
            p = h.prox(1.0, x)
            assert p is not x and not np.shares_memory(p, x)

    def test_argument_messages(self):
        for h in self._members(3):
            for gamma, message in [
                (0.0, "prox step size must be positive, got 0.0"),
                (-1, "prox step size must be positive, got -1"),
                (math.nan, "prox step size must be positive, got nan"),
                (math.inf, "prox step size must be finite, got inf"),
            ]:
                with pytest.raises(ValueError) as info:
                    h.prox(gamma, np.zeros(4))  # the step size is checked first
                assert str(info.value) == message
            with pytest.raises(ValueError) as info:
                h.prox(1.0, np.zeros(4))
            assert str(info.value) == "expected point of shape (3,), got (4,)"

    def test_a_member_without_a_prox(self):
        class Other(ProxFunction):
            dim = 2

        with pytest.raises(NotImplementedError):
            Other().prox(1.0, np.zeros(2))


class TestStepBelowTheFloatRange:
    """A positive step whose float is 0.0 is refused as prox refuses 0.0, by prox and by the loop's check of a rule."""

    TINY = Fraction(1, 10**400)

    def test_prox_refuses_it(self):
        for h in catalog_members(3):
            with pytest.raises(ValueError, match="^prox step size must be positive, got 1/1000"):
                h.prox(self.TINY, np.ones(3))

    def test_the_loop_refuses_a_rule_that_picks_it(self):
        for kind in ("zero", "nonneg", "box", "l1"):
            problem, x0 = random_composite(ClassParams(1.0, 10.0), 4, kind, 0)
            with pytest.raises(ValueError, match="^prox step size must be positive, got 1/1000"):
                engine._iterate(problem, x0, 3, None, lambda x, g: self.TINY, "fixed", False)

    def test_a_step_whose_float_is_positive_is_that_float(self):
        for h in catalog_members(3):
            x = np.array([0.7, -1.3, 2.2])
            for step in (Fraction(1, 10**300), Fraction(1, 3), 2):
                assert h.prox(step, x).tobytes() == h.prox(float(step), x).tobytes()


class TestErrorPaths:
    @pytest.mark.parametrize(
        "build,message",
        [
            pytest.param(lambda: BoxIndicator([0.0, 0.0], [1.0]), "lo and hi must be 1-d arrays of equal length",
                         id="box-lengths"),
            pytest.param(lambda: BoxIndicator([[0.0]], [[1.0]]), "lo and hi must be 1-d arrays of equal length",
                         id="box-2d"),
            pytest.param(lambda: BoxIndicator([1.0], [0.0]), "need lo <= hi", id="box-order"),
        ],
    )
    def test_raises(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestDimAtLeastOne:
    """Every member's dimension is at least 1: no point has shape (0,) or (-1,), so no such member is built."""

    @pytest.mark.parametrize("dim", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [Zero, NonnegIndicator, lambda dim: L1Norm(1.0, dim), lambda dim: ScaledSqNorm(1.0, dim)],
        ids=["zero", "nonneg", "l1", "scaled"],
    )
    def test_a_dim_below_one(self, build, dim):
        with pytest.raises(ValueError, match=r"^dim must be >= 1$"):
            build(dim)

    @pytest.mark.parametrize(
        "build",
        [lambda: BoxIndicator([], []), lambda: LinearPlusNonnegIndicator([]), lambda: DenseQuadratic(np.zeros((0, 0)))],
        ids=["box", "linear", "dense"],
    )
    def test_empty_data(self, build):
        # a member built from arrays has no dimension -1; its empty data is dimension 0
        with pytest.raises(ValueError, match=r"^dim must be >= 1$"):
            build()

    def test_dim_one_is_built(self):
        for h in (Zero(1), NonnegIndicator(1), L1Norm(1.0, 1), BoxIndicator([0.0], [1.0]),
                  LinearPlusNonnegIndicator([1.0])):
            assert h.dim == 1 and h.value(np.ones(1)) >= 0
        assert ScaledSqNorm(1.0, 1).dim == DenseQuadratic(np.ones((1, 1))).dim == 1
