"""Mesh bookkeeping and the per-step admissibility bounds."""

import math

import numpy as np
import pytest

from acbdf2.time_mesh import (
    S0_LIMIT,
    S1_LIMIT,
    STAB_CONSTANT,
    TimeMesh,
    constraint_flags,
    energy_law_bound,
    largest_solvable_step,
    max_principle_bound,
    solvability_bound,
)

from paper_forms import eta_floor, mesh_from_ratios


def report(mesh, eps=0.01, h=0.1, eta=0.5):
    """Every flag of every step of a mesh, the last step followed by ratio 0.

    Steps are judged one at a time, as the monitors judge them; each flag
    comes back as an array over the steps.
    """
    steps, r = mesh.steps.tolist(), mesh.ratios.tolist()
    rows = [
        constraint_flags(tau, ratio, eta=eta, eps=eps, h=h)
        | {"energy_law": tau <= energy_law_bound(ratio, r_next)}
        for tau, ratio, r_next in zip(steps, r, r[1:] + [0.0])
    ]
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def first_violation(flags):
    """1-based index of the first false flag, or None."""
    bad = np.flatnonzero(~flags)
    return int(bad[0]) + 1 if bad.size else None


def test_limits_are_the_algebraic_roots():
    # roots of r^2 - 2r - 1 and r^2 - 3r - 2
    assert S0_LIMIT == 1.0 + math.sqrt(2.0)
    assert S1_LIMIT == (3.0 + math.sqrt(17.0)) / 2.0
    assert abs(S0_LIMIT**2 - 2.0 * S0_LIMIT - 1.0) < 1e-14
    assert abs(S1_LIMIT**2 - 3.0 * S1_LIMIT - 2.0) < 1e-14


class TestTimeMesh:
    def test_basic_bookkeeping(self):
        mesh = TimeMesh(np.array([0.1, 0.3]))
        assert mesh.steps.size == 2
        np.testing.assert_array_equal(mesh.steps, [0.1, 0.3])
        np.testing.assert_allclose(mesh.ratios, [0.0, 3.0], rtol=1e-15)

    def test_single_step_mesh_is_legal(self):
        mesh = TimeMesh(np.array([0.5]))
        assert mesh.steps.size == 1
        assert mesh.ratios[0] == 0.0
        assert report(mesh)["s0"].all()

    def test_uniform(self):
        mesh = TimeMesh.uniform(1.0, 4)
        np.testing.assert_array_equal(mesh.steps, 0.25)
        np.testing.assert_array_equal(mesh.ratios, [0.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            TimeMesh.uniform(1.0, 0)

    def test_from_ratios(self):
        mesh = mesh_from_ratios(0.1, np.array([2.0, 0.5]))
        np.testing.assert_allclose(mesh.steps, [0.1, 0.2, 0.1], rtol=1e-15)
        np.testing.assert_allclose(mesh.ratios, [0.0, 2.0, 0.5], rtol=1e-15)

    @pytest.mark.parametrize(
        "steps",
        [
            [],
            [0.0, 0.1],
            [-0.1],
            [math.nan],
            [math.inf],
            [[0.1, 0.2]],
        ],
    )
    def test_rejects_bad_steps(self, steps):
        with pytest.raises(ValueError):
            TimeMesh(np.array(steps))

    def test_steps_are_frozen(self):
        mesh = TimeMesh(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            mesh.steps[0] = 1.0


class TestStabilityWindows:
    def test_s0_window(self):
        ok = report(TimeMesh(np.array([1.0, 2.4, 2.4 * 2.5])))["s0"]
        np.testing.assert_array_equal(ok, [True, True, False])

    def test_s0_equality_at_limit_is_a_violation(self):
        ok = report(TimeMesh(np.array([1.0, S0_LIMIT])))["s0"]
        np.testing.assert_array_equal(ok, [True, False])
        assert constraint_flags(0.1, S0_LIMIT, eta=0.5, eps=0.01, h=0.1)["s0"] is False

    def test_s1_window(self):
        ok = report(TimeMesh(np.array([1.0, 3.5, 3.5 * 3.6])))["s1"]
        np.testing.assert_array_equal(ok, [True, True, False])
        ok = report(TimeMesh(np.array([1.0, S1_LIMIT])))["s1"]
        np.testing.assert_array_equal(ok, [True, False])
        assert constraint_flags(0.1, S1_LIMIT, eta=0.5, eps=0.01, h=0.1)["s1"] is False

    def test_first_step_always_admissible(self):
        flags = report(TimeMesh(np.array([123.0])))
        assert flags["s0"][0]
        assert flags["s1"][0]

    def test_s0_implies_s1(self, rng):
        # the zero-stability window sits strictly inside the energy window
        for _ in range(50):
            flags = report(mesh_from_ratios(0.01, rng.uniform(0.05, 4.0, 8)))
            assert np.all(flags["s1"][flags["s0"]])


class TestSolvabilityBound:
    def test_frozen_values(self):
        assert solvability_bound(0.0) == 1.0
        assert solvability_bound(1.0) == 1.5
        assert solvability_bound(3.0) == pytest.approx(7.0 / 4.0, rel=1e-15)

    def test_monotone_between_one_and_two(self, rng):
        r = np.sort(rng.uniform(0.0, 50.0, 200))
        vals = np.array([solvability_bound(ratio) for ratio in r.tolist()])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals >= 1.0)
        assert np.all(vals < 2.0)


class TestLargestSolvableStep:
    @pytest.mark.parametrize("tp", [1e-6, 0.1, 1.0, 10.0])
    def test_meets_the_bound_after_its_previous_step(self, tp):
        t = largest_solvable_step(tp)
        assert solvability_bound(t / tp) == pytest.approx(t, rel=1e-12)

    def test_first_step(self):
        assert largest_solvable_step(0.0) == solvability_bound(0.0) == 1.0


class TestEnergyLawBound:
    def test_frozen_values(self):
        assert energy_law_bound(0.0, 0.0) == 1.0
        assert energy_law_bound(1.0, 0.0) == 1.5
        # min{5/3, 2 - 1/2} at ratio 2 followed by ratio 1
        assert energy_law_bound(2.0, 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_worst_admissible_pair(self):
        # ratio at the zero-stability limit, next ratio at the energy limit:
        # closed form 1 + sqrt(2)/2 - (sqrt(17) - 1)/4
        expect = 1.0 + math.sqrt(2.0) / 2.0 - (math.sqrt(17.0) - 1.0) / 4.0
        got = energy_law_bound(S0_LIMIT, S1_LIMIT)
        assert got == pytest.approx(expect, rel=1e-12)
        assert 0.9 < got < 0.95

    def test_positive_inside_energy_window(self, rng):
        r = rng.uniform(0.0, S1_LIMIT - 1e-9, 2000)
        r_next = rng.uniform(0.0, S1_LIMIT - 1e-9, 2000)
        assert all(energy_law_bound(*pair) > 0.0 for pair in zip(r.tolist(), r_next.tolist()))

    def test_vanishes_at_the_energy_limit(self):
        assert abs(energy_law_bound(S1_LIMIT, S1_LIMIT)) < 1e-12

    def test_nonpositive_outside_window(self):
        # ratio 5 makes the dissipation branch negative regardless of r_next
        assert energy_law_bound(5.0, 0.0) < 0.0


class TestMaxPrincipleBound:
    def test_frozen_value_ratio_one(self):
        # kappa = 1 at (r, eta) = (1, 1/2); bound = (1/2) / (2 + 4 eps^2/h^2)
        got = max_principle_bound(1.0, 0.5, 2.0, 0.1, 0.5)
        assert got == pytest.approx(0.23148148148148148, rel=1e-14)

    def test_frozen_prefactor_ratio_two(self):
        # kappa (1 - eta) = 1/48 at (r, eta) = (2, 8/9)
        eps, h = 0.01, 0.125
        got = max_principle_bound(2.0, 8.0 / 9.0, 2.0, eps, h)
        pref = got * (2.0 + 4.0 * eps * eps / (h * h))
        assert pref == pytest.approx(1.0 / 48.0, rel=1e-13)

    def test_zero_at_the_eta_floor(self):
        # eta = r^2 / (1 + 2r) kills the numerator (dyadic values: exact)
        assert max_principle_bound(1.5, 0.5625, 2.0, 0.01, 0.1) == 0.0

    def test_negative_below_the_floor(self):
        assert max_principle_bound(2.0, 0.5, 2.0, 0.01, 0.1) < 0.0

    @pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0])
    def test_recombination_weight_nearly_maximizes_it(self, ratio):
        # the per-run choice 2 r^2 / (1 + r)^2 should be within 1% of the
        # best possible weight for that ratio
        from acbdf2.kernels import run_eta

        etas = np.linspace(eta_floor(ratio) + 1e-9, 1.0 - 1e-9, 200001)
        best = max(max_principle_bound(ratio, eta, 2.0, 0.01, 0.1) for eta in etas.tolist())
        chosen = max_principle_bound(ratio, run_eta(ratio), 2.0, 0.01, 0.1)
        assert chosen >= 0.99 * best


class TestConstraintReport:
    """``constraint_flags`` over whole meshes, the form the monitors see."""

    def test_flags_match_direct_formulas(self, rng):
        mesh = TimeMesh(rng.uniform(0.05, 1.5, 12))
        eps, h, eta = 0.02, 1.0 / 64.0, 0.7
        rep = report(mesh, eps=eps, h=h, eta=eta)
        for k, (tau, ratio) in enumerate(zip(mesh.steps.tolist(), mesh.ratios.tolist())):
            assert rep["max_principle"][k] == (
                tau <= max_principle_bound(ratio, eta, STAB_CONSTANT, eps, h)
            )
            assert rep["s0"][k] == (0.0 <= ratio < S0_LIMIT)
            assert rep["s1"][k] == (0.0 <= ratio < S1_LIMIT)
            # float inputs give plain bools, not numpy ones
            flags = constraint_flags(tau, ratio, eta=eta, eps=eps, h=h)
            assert all(type(flag) is bool for flag in flags.values())

    def test_solvability_is_strict(self):
        # a first step of size exactly 1 sits on the bound: inadmissible
        from acbdf2.spatial import Grid2D
        from acbdf2.stepper import NewtonConfig, SolvabilityViolated, StepperState, bdf2_step

        assert solvability_bound(0.0) == 1.0
        zero = np.zeros((8, 8))
        state = StepperState(u_prev=zero, u_prev2=None, n=0, t=0.0)
        grid = Grid2D(M=8, L=1.0)
        cfg = NewtonConfig()
        with pytest.raises(SolvabilityViolated):
            bdf2_step(state, 1.0, grid, 0.01, None, cfg, anchor_lap=zero)
        u, _ = bdf2_step(state, 1.0 - 1e-3, grid, 0.01, None, cfg, anchor_lap=zero)
        np.testing.assert_array_equal(u, 0.0)

    def test_gentle_mesh_is_all_ok(self):
        rep = report(TimeMesh.uniform(1.0, 10), eps=0.01, h=0.1, eta=0.5)
        assert set(rep) == {"s0", "s1", "energy_law", "max_principle"}
        assert all(flags.all() for flags in rep.values())

    def test_first_violation_is_one_based(self):
        # the run summary names the violating step n, counting from 1
        from acbdf2.config import parse_config
        from acbdf2.experiments import random_mesh
        from acbdf2.runner import run_simulation

        text = (
            "domain.M = 8\ndomain.eps = 0.05\ntime.scheme = random-mesh\n"
            "time.n = 12\ntime.seed = 2\ninit.kind = coarsening\noutput.dir =\n"
        )
        summary = run_simulation(parse_config(text)).summary
        rep = report(random_mesh(12, 1.0, 2))
        for name in ("s0", "s1"):
            assert summary["first_violations"][name] == first_violation(rep[name])
            assert summary["constraint_violations"][name] == int(np.sum(~rep[name]))
        assert summary["first_violations"]["s0"] == 3
        assert summary["first_violations"]["s1"] == 5

    def test_energy_law_uses_the_following_ratio(self):
        # at ratio 2 the dissipation branch is 2 - r'/(1+r'): a large final
        # ratio fails the second step even though its own size is unchanged
        tame = report(TimeMesh(np.array([0.7, 1.4, 1.4])))
        spiky = report(TimeMesh(np.array([0.7, 1.4, 1.4 * 3.4])))
        assert bool(tame["energy_law"][1]) is True
        assert bool(spiky["energy_law"][1]) is False
        # without the following ratio the flag is not decided yet
        assert "energy_law" not in constraint_flags(1.4, 2.0, eta=0.5, eps=0.01, h=0.1)
