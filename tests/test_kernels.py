"""Convolution weights, recombination, and the discrete inverse."""

import math

import numpy as np
import pytest

from acbdf2.kernels import (
    complementary_row,
    identity_residual,
    recombined_kernels,
    run_eta,
    step_kernels,
)
from acbdf2.time_mesh import RATIO_CEILING, S0_LIMIT, TimeMesh

from paper_forms import (
    apply_recombined,
    eta_floor,
    mesh_from_ratios,
    mesh_kernels,
    recombined_rows,
)


def apply_bdf2(values, k):
    """``b0 (v^n - v^{n-1}) + b1 (v^{n-1} - v^{n-2})`` of the last three values."""
    return k.b0 * (values[-1] - values[-2]) + k.b1 * (values[-2] - values[-3])


class TestStepKernels:
    def test_frozen_pair(self):
        # steps 0.1 then 0.3: ratio 3, weights 7/1.2 and -9/1.2
        k = mesh_kernels(TimeMesh(np.array([0.1, 0.3])))[1]
        assert k.b0 == pytest.approx(5.833333333333333, rel=1e-15)
        assert k.b1 == pytest.approx(-7.5, rel=1e-15)

    def test_first_step_degenerates_to_one_step(self):
        k = mesh_kernels(TimeMesh(np.array([0.1, 0.3])))[0]
        assert k.b0 == pytest.approx(10.0, rel=1e-15)
        assert k.b1 == 0.0

    def test_weight_identities(self, rng):
        # b0 + b1 = (1 + 2r - r^2) / (tau (1+r)), b0 - b1 = (1+r) / tau
        for _ in range(300):
            tau = rng.uniform(1e-4, 10.0)
            r = rng.uniform(0.0, 5.0)
            k = step_kernels(tau, r)
            assert k.b0 + k.b1 == pytest.approx(
                (1.0 + 2.0 * r - r * r) / (tau * (1.0 + r)), rel=1e-13, abs=1e-13
            )
            assert k.b0 - k.b1 == pytest.approx((1.0 + r) / tau, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            step_kernels(0.0, 1.0)
        with pytest.raises(ValueError):
            step_kernels(0.1, -0.5)


class TestEtaChoice:
    def test_floor(self):
        assert eta_floor(0.0) == 0.0
        assert eta_floor(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert eta_floor(2.0) == pytest.approx(0.8, rel=1e-15)

    def test_admissible_window(self):
        # the solver's weights are nonnegative and decreasing just above
        # the floor r^2 / (1 + 2r) and not just below it
        def decreasing(eta, r):
            d = recombined_kernels(step_kernels(1.0, r), eta, 4)
            return bool(np.all(d >= 0.0) and np.all(np.diff(d) <= 0.0))

        for r in (0.5, 1.0, 1.5, 2.0, RATIO_CEILING):
            floor = eta_floor(r)
            assert decreasing(floor + 1e-9, r)
            assert not decreasing(floor - 1e-9, r)
        assert decreasing(0.999, 2.0)

    def test_frozen_choices(self):
        assert run_eta(1.0) == 0.5
        assert run_eta(1.5) == pytest.approx(0.72, rel=1e-15)
        assert run_eta(2.0) == pytest.approx(8.0 / 9.0, rel=1e-15)

    def test_approaches_one_at_the_stability_limit(self):
        eta = run_eta(S0_LIMIT - 1e-6)
        assert 0.0 < 1.0 - eta < 3e-7

    def test_domain(self):
        # ratios are clamped into [1, RATIO_CEILING]: a uniform mesh, a
        # single step and an uncapped controller all get a weight below 1
        assert run_eta(0.0) == run_eta(0.999) == run_eta(1.0)
        assert run_eta(S0_LIMIT) == run_eta(math.inf) == run_eta(RATIO_CEILING)
        assert run_eta(math.inf) < 1.0

    def test_choice_is_admissible_for_every_smaller_ratio(self, rng):
        # the floor grows with the ratio, so checking at the cap suffices;
        # check a few smaller ratios anyway
        for _ in range(200):
            r_s = rng.uniform(1.0, RATIO_CEILING)
            eta = run_eta(r_s)
            assert eta_floor(r_s) <= eta < 1.0
            assert eta_floor(rng.uniform(0.0, r_s)) <= eta


class TestRecombinedKernels:
    def test_frozen_uniform_row(self):
        # uniform steps of 1, eta = 1/2: d = (3/2, 1/4, 1/8, 1/16), exact
        k = step_kernels(1.0, 1.0)
        d = recombined_kernels(k, 0.5, 3)
        np.testing.assert_array_equal(d, [1.5, 0.25, 0.125, 0.0625])

    def test_leading_entry_is_b0(self, rng):
        k = step_kernels(0.37, 1.8)
        d = recombined_kernels(k, 0.85, 5)
        assert d[0] == k.b0
        assert d[1] == pytest.approx(k.b0 * 0.85 + k.b1, rel=1e-15)

    def test_geometric_tail(self, rng):
        k = step_kernels(0.2, 1.3)
        eta = 0.77
        d = recombined_kernels(k, eta, 8)
        np.testing.assert_allclose(d[2:] / d[1:-1], eta, rtol=1e-14)

    def test_nonnegative_decreasing_iff_admissible(self, rng):
        for _ in range(200):
            r = rng.uniform(0.0, RATIO_CEILING)
            tau = rng.uniform(1e-3, 1.0)
            k = step_kernels(tau, r)
            eta = run_eta(r)
            d = recombined_kernels(k, eta, 6)
            assert np.all(d >= 0.0)
            assert np.all(np.diff(d) <= 0.0)

    def test_tail_negative_below_the_floor(self):
        k = step_kernels(0.1, 2.0)
        d = recombined_kernels(k, 0.79, 4)  # floor at ratio 2 is 0.8
        assert d[1] < 0.0

    def test_needs_positive_index(self):
        with pytest.raises(ValueError):
            recombined_kernels(step_kernels(0.1, 0.0), 0.5, 0)


class TestComplementaryKernels:
    def test_frozen_uniform_row(self):
        # uniform steps of 1, eta = 1/2, second row: (2/3, 5/6)
        mesh = TimeMesh.uniform(2.0, 2)
        d_rows = recombined_rows(mesh, 0.5)
        q = complementary_row(d_rows, 2)
        np.testing.assert_allclose(q, [2.0 / 3.0, 5.0 / 6.0], rtol=1e-15)

    def test_inverse_identity_on_random_meshes(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 13))
            ratios = rng.uniform(0.05, S0_LIMIT - 1e-9, max(n - 1, 0))
            mesh = mesh_from_ratios(rng.uniform(0.01, 0.5), ratios)
            eta = run_eta(float(mesh.ratios.max()))
            d_rows = recombined_rows(mesh, eta)
            for m in range(1, n + 1):
                q = complementary_row(d_rows, m)
                for k in range(1, m + 1):
                    assert identity_residual(d_rows, q, m, k) <= 10 * m * 2.3e-16

    def test_positivity_and_bounds(self, rng):
        # 0 < Q_{n-j} <= 1/d_0(j) <= tau_j (1+r_j)/(1+2 r_j) <= tau_j
        mesh = mesh_from_ratios(0.1, rng.uniform(0.3, 2.2, 9))
        eta = run_eta(float(mesh.ratios.max()))
        d_rows = recombined_rows(mesh, eta)
        for n in range(1, mesh.steps.size + 1):
            q = complementary_row(d_rows, n)
            assert np.all(q > 0.0)
            for j in range(1, n + 1):
                bound = 1.0 / d_rows[j - 1][0]
                assert q[n - j] <= bound * (1.0 + 1e-14)
                tau_j, r_j = mesh.steps[j - 1], mesh.ratios[j - 1]
                assert bound <= tau_j * (1.0 + r_j) / (1.0 + 2.0 * r_j) * (
                    1.0 + 1e-14
                )
                assert bound <= tau_j * (1.0 + 1e-14)

    def test_triangle_shape(self):
        d_rows = recombined_rows(TimeMesh.uniform(1.0, 5), 0.5)
        assert [row.size for row in d_rows] == [2, 3, 4, 5, 6]
        rows = [complementary_row(d_rows, n) for n in range(1, 6)]
        assert [row.size for row in rows] == [1, 2, 3, 4, 5]

    def test_validation(self):
        mesh = TimeMesh.uniform(1.0, 3)
        d_rows = recombined_rows(mesh, 0.5)
        with pytest.raises(ValueError):
            complementary_row(d_rows, 0)
        with pytest.raises(ValueError):
            complementary_row(d_rows[:2], 3)


class TestOperatorEquivalence:
    def test_two_level_apply(self):
        # b0 = 10/3, b1 = -8/3 at (tau, r) = (1/2, 2): 20/3 - 4/3
        k = step_kernels(0.5, 2.0)
        assert apply_bdf2([0.5, 1.0, 3.0], k) == pytest.approx(16.0 / 3.0, rel=1e-15)

    def test_first_step_apply(self):
        # on the first step d_0 (vbar^1 - vbar^0) + d_1 vbar^0, with d_1 =
        # b0 eta, telescopes to the one-step difference (v^1 - v^0) / tau
        k = step_kernels(0.25, 0.0)
        assert k.b1 == 0.0
        d = recombined_kernels(k, 0.5, 1)
        assert apply_recombined([0.0, 1.0], d, 0.5) == pytest.approx(4.0, rel=1e-15)
        assert apply_recombined([1.0, 1.0], d, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_recombined_equals_direct(self, rng):
        # the shifted-increment form telescopes back to the two-term one
        for _ in range(50):
            n = int(rng.integers(2, 10))
            ratios = rng.uniform(0.1, S0_LIMIT - 1e-9, n - 1)
            mesh = mesh_from_ratios(rng.uniform(0.05, 0.5), ratios)
            eta = rng.uniform(0.05, 0.95)
            values = list(rng.standard_normal(n + 1))
            k = mesh_kernels(mesh)[n - 1]
            d = recombined_kernels(k, eta, n)
            direct = apply_bdf2(values, k)
            recombined = apply_recombined(values, d, eta)
            assert recombined == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_recombined_works_on_fields(self, rng):
        n = 4
        mesh = mesh_from_ratios(0.1, np.array([1.2, 0.8, 1.5]))
        eta = 0.6
        values = [rng.standard_normal((6, 6)) for _ in range(n + 1)]
        k = mesh_kernels(mesh)[n - 1]
        d = recombined_kernels(k, eta, n)
        np.testing.assert_allclose(
            apply_recombined(values, d, eta), apply_bdf2(values, k),
            rtol=1e-12, atol=1e-12,
        )
