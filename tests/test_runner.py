"""Whole-run orchestration: marches, artifacts, policies, determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from acbdf2 import runner, stepper
from acbdf2.adaptive import TooManyRejects
from acbdf2.config import ConfigError, parse_config
from acbdf2.experiments import coarsening_init, random_mesh
from acbdf2.kernels import run_eta
from acbdf2.runner import CSV_HEADER, ConstraintAbort, run_simulation
from acbdf2.spatial import Grid2D, laplacian_apply, read_snapshot, write_snapshot
from acbdf2.stepper import StepRecord, energy
from acbdf2.time_mesh import RATIO_CEILING, TimeMesh, constraint_flags

from paper_forms import modified_energy_value

BASE = """
domain.L = 1.0
domain.M = 32
domain.eps = 0.02
time.T = 1.0
time.scheme = uniform
time.tau = 0.1
init.kind = coarsening
init.amp = 0.05
init.seed = 3
output.dir =
"""


def run_text(text, out_dir=None):
    if out_dir is not None:
        text += f"output.dir = {out_dir}\n"
    return run_simulation(parse_config(text))


class TestUniformMarch:
    def test_bookkeeping(self):
        res = run_text(BASE)
        s = res.summary
        assert s["scheme"] == "uniform"
        assert s["total_steps"] == 10
        assert s["rejected_steps"] == 0
        assert s["final_time"] == pytest.approx(1.0, abs=1e-12)
        assert s["eta"] == 0.5  # uniform runs report against ratio 1
        assert len(res.records) == 10
        assert all(r.accepted for r in res.records)
        assert res.records[0].ratio == 0.0
        assert all(r.ratio == pytest.approx(1.0) for r in res.records[1:])
        assert all(math.isnan(r.e_est) for r in res.records)
        assert all(r.newton_iters >= 1 for r in res.records)
        assert res.u_final.shape == (32, 32)
        assert s["max_norm_overall"] <= 1.0 + 1e-12
        assert s["solver_error"] is None and s["aborted"] is None

    def test_initial_energy_and_monotone_decay(self):
        res = run_text(BASE)
        grid = Grid2D(M=32, L=1.0)
        u0 = coarsening_init(grid, seed=3, base=0.0, amp=0.05)
        assert res.summary["energy_initial"] == pytest.approx(
            energy(u0, grid, 0.02, np.empty_like(u0)), rel=1e-14
        )
        energies = [res.summary["energy_initial"]] + [
            r.energy for r in res.records
        ]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_modified_energy_closes_the_run(self):
        res = run_text(BASE)
        for rec in res.records[:-1]:
            assert rec.modified_energy >= rec.energy - 1e-15
        # after the final step the next ratio is 0: plain energy, exactly
        assert res.records[-1].modified_energy == res.records[-1].energy

    def test_modified_energy_is_monotone_too(self):
        res = run_text(BASE)
        me = [r.modified_energy for r in res.records]
        assert all(b <= a + 1e-14 for a, b in zip(me, me[1:]))


class TestLevelWork:
    """An accepted level's field work outside CG, and the energies it yields."""

    BUBBLES = """
domain.L = 2.0
domain.M = 32
domain.eps = 0.02
domain.origin = -1.0
time.T = 0.01
time.scheme = uniform
time.tau = 1e-3
init.kind = four_bubble
output.dir =
"""

    def test_uniform_level_applies_two_laplacians_and_one_energy(self, monkeypatch):
        # one Laplacian for the Newton residual and one for the energy,
        # which the next level's solve keeps as its anchor_lap; one energy
        # call serves both the row's energy and its modified energy
        calls = {"lap": 0, "energy": 0}

        def counted(fn, key):
            def call(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(stepper, "laplacian_apply", counted(stepper.laplacian_apply, "lap"))
        for module in (stepper, runner):
            monkeypatch.setattr(module, "energy", counted(module.energy, "energy"))
        res = run_text(self.BUBBLES)
        levels = res.summary["total_steps"]
        assert levels == 10
        # the finishing rule ends every two-step solve after one residual;
        # the first level's one-step solve evaluates one more
        assert [r.newton_iters for r in res.records] == [3] + [2] * (levels - 1)
        # the initial energy, then per level one residual and one energy
        assert calls["lap"] == 1 + 2 * levels + 1
        assert calls["energy"] == 1 + levels

    def test_rows_carry_the_paper_modified_energy(self, monkeypatch):
        # each row's E + r' tau / (2 (1 + r')) h^2 sum ((u^n - u^{n-1}) / tau)^2,
        # with r' the next row's ratio and 0 on the last row
        levels = []
        step = runner.bdf2_step

        def recorded(state, *args, **kwargs):
            if not levels:
                levels.append(state.u_prev)
            u, sweeps = step(state, *args, **kwargs)
            levels.append(u)
            return u, sweeps

        monkeypatch.setattr(runner, "bdf2_step", recorded)
        res = run_text(BASE + "time.scheme = random-mesh\ntime.n = 8\ntime.seed = 7\n")
        grid = Grid2D(M=32, L=1.0)
        ratios_next = [r.ratio for r in res.records[1:]] + [0.0]
        for k, (rec, r_next) in enumerate(zip(res.records, ratios_next), start=1):
            u, u_prev = levels[k], levels[k - 1]
            e = energy(u, grid, 0.02, np.empty_like(u))
            history = float(np.sum(((u - u_prev) / rec.tau) ** 2))
            want = modified_energy_value(e, history, rec.tau, r_next, grid.h)
            assert rec.energy == pytest.approx(e, rel=1e-14, abs=0.0)
            assert rec.modified_energy == pytest.approx(want, rel=1e-13, abs=0.0), k


class TestMeshRecords:
    """A mesh run's records carry the mesh's node times and ratios, bit for bit."""

    @pytest.mark.parametrize(
        "scheme, mesh",
        [
            ("time.scheme = uniform\ntime.tau = 2e-3\n", TimeMesh.uniform(1.0, 500)),
            (
                "time.scheme = random-mesh\ntime.n = 60\ntime.seed = 7\n",
                random_mesh(60, 1.0, 7),
            ),
        ],
        ids=["uniform", "random-mesh"],
    )
    def test_times_and_ratios_are_the_mesh_s(self, scheme, mesh):
        text = BASE.replace("domain.M = 32", "domain.M = 8").replace(
            "time.scheme = uniform\ntime.tau = 0.1\n", scheme
        )
        records = run_text(text).records
        assert [r.t for r in records] == list(np.cumsum(mesh.steps))
        assert [r.ratio for r in records] == list(mesh.ratios)


class TestNewtonTotal:
    """``newton_iters_total`` counts every Newton solve of the run once."""

    ADAPTIVE = BASE.replace("time.scheme = uniform", "time.scheme = adaptive").replace(
        "time.T = 1.0", "time.T = 0.2"
    ).replace("domain.M = 32", "domain.M = 16") + "adaptive.tol = 1e-4\n"

    def test_total_is_the_sweeps_that_ran(self, monkeypatch):
        sweeps = []
        solve = stepper.nonlinear_solve

        def counted(*args, **kwargs):
            u, n = solve(*args, **kwargs)
            sweeps.append(n)
            return u, n

        monkeypatch.setattr(stepper, "nonlinear_solve", counted)
        for text in (self.ADAPTIVE, BASE):
            sweeps.clear()
            summary = run_text(text).summary
            assert summary["newton_iters_total"] == sum(sweeps), summary["scheme"]
            if text is self.ADAPTIVE:
                # a rejected trial's solve counts too
                assert summary["rejected_steps"] >= 1


    def test_a_failed_level_logs_its_trials(self, monkeypatch, tmp_path):
        # level 3 is rejected twice and ends the run; its two trial rows and
        # all their sweeps still reach the artifacts
        sweeps = []
        solve = stepper.nonlinear_solve

        def counted(*args, **kwargs):
            u, n = solve(*args, **kwargs)
            sweeps.append(n)
            return u, n

        monkeypatch.setattr(stepper, "nonlinear_solve", counted)
        text = BASE.replace("domain.M = 32", "domain.M = 16").replace(
            "time.scheme = uniform", "time.scheme = adaptive"
        ).replace("time.T = 1.0", "time.T = 0.2")
        text += "adaptive.tol = 1e-7\nadaptive.max_rejects = 1\n"
        with pytest.raises(TooManyRejects, match="level 3 rejected 2 times"):
            run_text(text, out_dir=str(tmp_path))
        rows = (tmp_path / "steps.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        assert [(cell[0], cell[5]) for cell in cells] == [
            ("1", "true"), ("2", "false"), ("2", "true"), ("3", "false"), ("3", "false")
        ]
        summary = json.loads((tmp_path / "summary.json").read_text())
        # five solves: one per trial
        assert len(sweeps) == 5
        assert summary["newton_iters_total"] == sum(sweeps)


class TestArtifacts:
    def test_files_and_shapes(self, tmp_path):
        res = run_text(BASE, out_dir=str(tmp_path))
        csv = (tmp_path / "steps.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 1 + len(res.records)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["total_steps"] == 10
        assert set(summary) == set(res.summary)

    def test_csv_cells_round_trip(self, tmp_path):
        res = run_text(BASE, out_dir=str(tmp_path))
        lines = (tmp_path / "steps.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[3].split(",")))
        rec = res.records[2]
        assert int(row["n"]) == rec.n
        assert float(row["t"]) == rec.t  # .17g is lossless for doubles
        assert float(row["energy"]) == rec.energy
        assert row["accepted"] == "true"
        assert math.isnan(float(row["e_est"]))

    def test_reruns_are_byte_identical(self, tmp_path):
        run_text(BASE, out_dir=str(tmp_path / "a"))
        run_text(BASE, out_dir=str(tmp_path / "b"))
        for name in ("steps.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_empty_dir_suppresses_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_text(BASE)  # output.dir is empty in BASE
        assert list(tmp_path.iterdir()) == []

    def test_config_dir_is_honored(self, tmp_path):
        text = BASE.replace("output.dir =", f"output.dir = {tmp_path}/from_cfg")
        run_text(text)
        assert (tmp_path / "from_cfg" / "summary.json").exists()

class TestSnapshots:
    def test_schedule_naming_and_content(self, tmp_path):
        text = BASE + "output.snapshots = 0.0, 0.5, 1.0\n"
        res = run_text(text, out_dir=str(tmp_path))
        assert res.summary["snapshots"] == [
            "snap_t0.acf",
            "snap_t0.5.acf",
            "snap_t1.acf",
        ]
        u0, t0 = read_snapshot(str(tmp_path / "snap_t0.acf"))
        assert t0 == 0.0
        grid = Grid2D(M=32, L=1.0)
        np.testing.assert_array_equal(
            u0, coarsening_init(grid, seed=3, base=0.0, amp=0.05)
        )
        u_end, t_end = read_snapshot(str(tmp_path / "snap_t1.acf"))
        assert t_end == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(u_end, res.u_final)

class TestAdaptiveMarch:
    TEXT = """
domain.L = 1.0
domain.M = 32
domain.eps = 0.02
time.T = 0.5
time.scheme = adaptive
adaptive.tol = 1e-3
adaptive.tau_min = 1e-3
adaptive.tau_max = 0.1
init.kind = coarsening
init.amp = 0.05
init.seed = 3
output.dir =
"""

    def test_lands_on_the_horizon(self):
        res = run_text(self.TEXT)
        assert res.summary["final_time"] == pytest.approx(0.5, abs=1e-9)
        assert res.summary["scheme"] == "adaptive"
        assert res.summary["total_steps"] >= 5

    def test_eta_comes_from_the_ratio_cap(self):
        res = run_text(self.TEXT)
        assert res.summary["eta"] == run_eta(RATIO_CEILING)
        res2 = run_text(self.TEXT + "adaptive.ratio_cap = 1.5\n")
        assert res2.summary["eta"] == run_eta(1.5) == 0.72

    def test_accepted_ratios_respect_the_cap(self):
        res = run_text(self.TEXT + "adaptive.ratio_cap = 1.8\n")
        accepted = [r for r in res.records if r.accepted]
        assert all(r.ratio <= 1.8 + 1e-12 for r in accepted)

    def test_explicit_tau_seeds_the_first_trial(self):
        res = run_text(self.TEXT + "time.tau = 0.05\n")
        assert res.records[0].tau == pytest.approx(0.05, rel=1e-15)

    def test_rejected_trials_carry_flags_but_raise_no_events(self):
        # a cap of 1e9 never binds: growth asks for a trial at ratio 100,
        # which is rejected
        res = run_text(self.TEXT + "adaptive.ratio_cap = 1e9\n")
        rejected = [r for r in res.records if not r.accepted]
        assert rejected and not rejected[0].s0_ok
        for rec in res.records:
            flags = constraint_flags(
                rec.tau, rec.ratio, eta=res.summary["eta"], eps=0.02, h=res.grid.h
            )
            assert (rec.s0_ok, rec.maxp_bound_ok) == (flags["s0"], flags["max_principle"])
        accepted = [r for r in res.records if r.accepted]
        assert res.summary["constraint_violations"]["s0"] == sum(
            not r.s0_ok for r in accepted
        )

    def test_level_allocates_only_its_two_roots(self, monkeypatch):
        # both solves, the error estimate and the energies work in reused
        # fields, so a warmed level allocates the two candidates alone
        marks = []
        advance = runner.advance

        def marked(*args, **kwargs):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return advance(*args, **kwargs)

        monkeypatch.setattr(runner, "advance", marked)
        tracemalloc.start()
        try:
            res = run_text(self.TEXT + "domain.M = 64\n")
        finally:
            tracemalloc.stop()
        assert res.summary["rejected_steps"] == 0
        # a level runs from its start to the next one's; two warm up
        excess = [peak - start for (start, _), (_, peak) in zip(marks[2:], marks[3:])]
        assert len(excess) >= 5
        assert max(excess) < 2.5 * 8 * 64 * 64


class TestRandomMeshMarch:
    TEXT = """
domain.L = 1.0
domain.M = 32
domain.eps = 0.02
time.T = 1.0
time.scheme = random-mesh
time.n = 15
time.seed = 2
init.kind = coarsening
init.amp = 0.05
init.seed = 3
output.dir =
"""

    def test_realized_mesh_and_eta(self):
        res = run_text(self.TEXT)
        mesh = random_mesh(15, 1.0, 2)
        assert res.summary["total_steps"] == 15
        np.testing.assert_allclose(
            [r.tau for r in res.records], mesh.steps, rtol=1e-15
        )
        r_max = float(mesh.ratios[1:].max())
        assert res.summary["eta"] == run_eta(r_max)


class TestAnchorLaplacian:
    """Every solve of a march reads the Laplacian of its own anchor.

    The run keeps one field, filled by the energy of each accepted level;
    a field left over from an earlier level or trial would change the
    solve's base residual and, through it, every root that follows.
    """

    @staticmethod
    def check_every_solve(monkeypatch):
        anchors = []
        solve = stepper.nonlinear_solve

        def checked(w0, const, b0, grid, eps, cfg, *, anchor, anchor_lap):
            # bit equality: the kept field must be the very same Laplacian
            want = laplacian_apply(anchor, grid.h)
            assert anchor_lap.tobytes() == want.tobytes(), len(anchors)
            anchors.append(anchor)
            return solve(w0, const, b0, grid, eps, cfg, anchor=anchor, anchor_lap=anchor_lap)

        monkeypatch.setattr(stepper, "nonlinear_solve", checked)
        return anchors

    def test_uniform_march(self, monkeypatch):
        anchors = self.check_every_solve(monkeypatch)
        res = run_text(BASE)
        assert len(anchors) == res.summary["total_steps"] == 10

    def test_adaptive_march_with_a_rejected_trial(self, monkeypatch):
        anchors = self.check_every_solve(monkeypatch)
        res = run_text(TestAdaptiveMarch.TEXT + "adaptive.ratio_cap = 1e9\n")
        trials = len(res.records)
        assert res.summary["rejected_steps"] >= 1
        # one solve per trial
        assert len(anchors) == trials
        # a rejected trial's solve and the retry's share their anchor
        assert any(a is b for a, b in zip(anchors, anchors[1:]))

    @pytest.mark.parametrize("seed", range(5000, 5010))
    def test_random_mesh_mms_march(self, monkeypatch, seed):
        anchors = self.check_every_solve(monkeypatch)
        res = run_text(
            f"""
domain.L = 1.0
domain.M = 32
time.T = 1.0
time.scheme = random-mesh
time.n = 40
time.seed = {seed}
init.kind = mms
output.dir =
"""
        )
        assert len(anchors) == res.summary["total_steps"] == 40


class TestConstraintPolicies:
    # tau = 0.2 at M = 64, eps = 0.01 sits above the maximum-principle
    # step bound at ratio 1 (~0.14) but inside the ratio-0 bound of the
    # first step (~0.27): steps 2..5 trip that monitor
    TEXT = """
domain.L = 1.0
domain.M = 64
domain.eps = 0.01
time.T = 1.0
time.scheme = uniform
time.tau = 0.2
init.kind = coarsening
init.amp = 0.05
init.seed = 0
output.dir =
"""

    def test_warn_counts_but_completes(self):
        res = run_text(self.TEXT)
        s = res.summary
        assert s["total_steps"] == 5
        assert s["constraint_violations"]["max_principle"] == 4
        assert s["first_violations"]["max_principle"] == 2
        assert s["constraint_violations"]["s0"] == 0
        assert s["aborted"] is None

    def test_off_suppresses_counting(self):
        res = run_text(self.TEXT + "constraints.max_principle = off\n")
        assert res.summary["constraint_violations"]["max_principle"] == 0

    def test_enforce_aborts_with_partial_artifacts(self, tmp_path):
        text = self.TEXT + "constraints.max_principle = enforce\n"
        with pytest.raises(ConstraintAbort, match="max_principle.*step 2"):
            run_text(text, out_dir=str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["aborted"] == "max_principle"
        assert summary["first_violations"]["max_principle"] == 2
        csv = (tmp_path / "steps.csv").read_text().splitlines()
        assert len(csv) == 3  # header, clean first step, offending step


class TestInitKinds:
    def test_file_init_round_trip(self, tmp_path, rng):
        u0 = 0.4 * rng.uniform(-1.0, 1.0, (16, 16))
        path = tmp_path / "start.acf"
        write_snapshot(str(path), u0, t=0.0)
        text = f"""
domain.L = 1.0
domain.M = 16
domain.eps = 0.05
time.T = 0.1
time.tau = 0.05
init.kind = file
init.path = {path}
output.dir =
"""
        res = run_text(text)
        grid = Grid2D(M=16, L=1.0)
        assert res.summary["energy_initial"] == pytest.approx(
            energy(u0, grid, 0.05, np.empty_like(u0)), rel=1e-14
        )
        assert res.summary["total_steps"] == 2

    def test_file_init_shape_mismatch(self, tmp_path):
        path = tmp_path / "small.acf"
        write_snapshot(str(path), np.zeros((8, 8)), t=0.0)
        text = f"""
domain.M = 16
init.kind = file
init.path = {path}
output.dir =
"""
        with pytest.raises(ValueError, match="8x8"):
            run_text(text)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_file_init_non_finite_is_bad_input(self, tmp_path, bad):
        u0 = np.zeros((8, 8))
        u0[3, 4] = bad
        path = tmp_path / "bad.acf"
        write_snapshot(str(path), u0, t=0.0)
        out = tmp_path / "out"
        text = f"domain.M = 8\ninit.kind = file\ninit.path = {path}\n"
        with pytest.raises(ConfigError, match="configuration problem: .*non-finite"):
            run_text(text, out)
        assert not out.exists()

    MMS = """
domain.M = 64
time.T = 1.0
time.scheme = random-mesh
time.n = 10
time.seed = 1
init.kind = mms
output.dir =
"""

    def test_mms_init_wires_the_source(self):
        # without the forcing the field would stay near zero and miss the
        # exact solution by sin(1); with it the error is tiny
        res = run_text(self.MMS)
        from acbdf2.experiments import MmsProblem

        grid = res.grid
        X, Y = grid.meshgrid()
        exact = MmsProblem.exact(X, Y, res.summary["final_time"])
        assert float(np.abs(res.u_final - exact).max()) < 0.05

    def test_mms_level_allocates_only_its_root(self, monkeypatch):
        # the solve, the energies, the source and the error observer all
        # work in reused fields, so a warmed level allocates its root alone
        marks = []
        step = runner.bdf2_step

        def marked(*args, **kwargs):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return step(*args, **kwargs)

        monkeypatch.setattr(runner, "bdf2_step", marked)
        tracemalloc.start()
        try:
            run_text(self.MMS)
        finally:
            tracemalloc.stop()
        # a level runs from its step's start to the next one's; two warm up
        excess = [peak - start for (start, _), (_, peak) in zip(marks[2:], marks[3:])]
        assert len(excess) == 7
        assert max(excess) < 1.5 * 8 * 64 * 64
