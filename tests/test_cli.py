"""Command-line interface: exit codes, overrides, and table dumps."""

import json
import time

import numpy as np
import pytest

from acbdf2.cli import (
    EXIT_CONFIG,
    EXIT_CONSTRAINT,
    EXIT_OK,
    EXIT_SOLVER,
    main,
)
from acbdf2.experiments import random_mesh
from acbdf2.kernels import step_kernels

QUICK = """
domain.L = 1.0
domain.M = 32
domain.eps = 0.02
time.T = 0.5
time.scheme = uniform
time.tau = 0.1
init.kind = coarsening
init.amp = 0.05
init.seed = 3
output.dir =
"""


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUICK)
        assert main(["run", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "completed 5 steps" in out
        assert "final energy" in out

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.conf")]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "domain.M = -3\nbogus = 1\n")
        assert main(["run", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key" in err

    def test_missing_init_file(self, tmp_path, capsys):
        # the config parses; the run cannot read the snapshot it names
        missing = tmp_path / "nope.acf"
        text = QUICK.replace("init.kind = coarsening", f"init.kind = file\ninit.path = {missing}")
        assert main(["run", write_config(tmp_path, text)]) == EXIT_CONFIG
        assert "configuration problem" in capsys.readouterr().err

    def test_ratio_cap_below_one_is_a_config_error(self, tmp_path, capsys):
        # a cap below 1 would shrink every step past tau_min, until the
        # field overflows: the run must stop before its first step
        text = (
            "domain.M = 2\ntime.T = 0.03125\ntime.scheme = adaptive\n"
            "adaptive.ratio_cap = 0.5\noutput.dir =\n"
        )
        start = time.perf_counter()
        assert main(["run", write_config(tmp_path, text)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert "adaptive.ratio_cap" in capsys.readouterr().err

    def test_solver_failure(self, tmp_path, capsys):
        # first step of size 1.2 is beyond the ratio-0 solvability bound
        cfg = write_config(tmp_path, QUICK.replace("time.tau = 0.1", "time.tau = 1.2").replace("time.T = 0.5", "time.T = 2.4"))
        assert main(["run", cfg]) == EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err

    def test_zero_reference_is_a_solver_failure(self, tmp_path, capsys):
        # zero data stays zero, so the adaptive error estimate has no scale
        text = QUICK.replace("init.amp = 0.05", "init.amp = 0").replace(
            "time.scheme = uniform", "time.scheme = adaptive"
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg]) == EXIT_SOLVER
        assert "reference solution vanishes" in capsys.readouterr().err

    def test_constraint_abort(self, tmp_path, capsys):
        text = QUICK.replace("domain.M = 32", "domain.M = 64").replace(
            "domain.eps = 0.02", "domain.eps = 0.01"
        ).replace("time.tau = 0.1", "time.tau = 0.2")
        text += "constraints.max_principle = enforce\n"
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg]) == EXIT_CONSTRAINT
        assert "aborted" in capsys.readouterr().err

    def test_out_flag_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        out = tmp_path / "artifacts"
        assert main(["run", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "steps.csv").exists()
        assert (out / "summary.json").exists()

    def test_set_flag_overrides_keys(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        out = tmp_path / "o"
        code = main(
            ["run", cfg, "--out", str(out), "--set", "time.tau = 0.25"]
        )
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_steps"] == 2

    def test_seed_flag_changes_the_data(self, tmp_path):
        cfg = write_config(tmp_path, QUICK)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", cfg, "--out", str(a), "--seed", "11"])
        main(["run", cfg, "--out", str(b), "--seed", "11"])
        main(["run", cfg, "--out", str(c), "--seed", "12"])
        assert (a / "steps.csv").read_bytes() == (b / "steps.csv").read_bytes()
        assert (a / "steps.csv").read_bytes() != (c / "steps.csv").read_bytes()


class TestMmsCommand:
    def test_writes_the_table(self, tmp_path, capsys):
        code = main(
            ["mms", "--n-list", "4,8", "--seeds", "1", "--m", "32",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "convergence_seed1.csv").read_text().splitlines()
        assert lines[0] == "N,tau_max,err_inf,order,num_ratio_violations"
        assert len(lines) == 3
        assert lines[1].startswith("4,")
        assert lines[2].startswith("8,")
        assert "nan" in lines[1]  # no order on the first row

    def test_reruns_are_identical(self, tmp_path):
        args = ["mms", "--n-list", "4", "--seeds", "2", "--m", "32"]
        main(args + ["--out", str(tmp_path / "x")])
        main(args + ["--out", str(tmp_path / "y")])
        assert (tmp_path / "x" / "convergence_seed2.csv").read_bytes() == (
            tmp_path / "y" / "convergence_seed2.csv"
        ).read_bytes()

    def test_bad_lists(self, tmp_path, capsys):
        assert main(["mms", "--n-list", "4;8"]) == EXIT_CONFIG
        assert main(["mms", "--n-list", "0"]) == EXIT_CONFIG
        # rejected before the valid seed 2 is run
        out = tmp_path / "neg"
        assert main(["mms", "--seeds", "2,-1", "--out", str(out)]) == EXIT_CONFIG
        assert "--seeds cannot be negative" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure(self, tmp_path, capsys):
        # one step of size T = 1 reaches the first step's solvability bound
        code = main(
            ["mms", "--n-list", "1", "--seeds", "0", "--m", "8", "--out", str(tmp_path)]
        )
        assert code == EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        args = ["mms", "--n-list", "2", "--seeds", "0", "--m", "8"]
        blocker = tmp_path / "file"
        blocker.write_text("")
        # the directory cannot be made, or its table cannot be written
        assert main(args + ["--out", str(blocker / "x")]) == EXIT_CONFIG
        (tmp_path / "out" / "convergence_seed0.csv").mkdir(parents=True)
        assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("cannot write output") == 2

    def test_bad_grid_size(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["mms", "--m", "1", "--n-list", "2", "--seeds", "0", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert "--m must be at least 2" in capsys.readouterr().err
        assert not out.exists()


class TestCheckKernelsCommand:
    def test_uniform_table_on_stdout(self, capsys):
        code = main(
            ["check-kernels", "--n", "2", "--uniform", "1.0", "--eta", "0.5",
             "--out", "-"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,j,b0,b1,d_j,Q_j,identity_residual"
        assert len(lines) == 1 + 2 + 3  # rows n=1 (j=0..1) and n=2 (j=0..2)
        # second row of the inverse starts with 2/3
        row20 = lines[3].split(",")
        assert row20[:2] == ["2", "0"]
        assert float(row20[2]) == 1.5  # b0 at ratio 1
        assert float(row20[3]) == -0.5
        assert float(row20[5]) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_residuals_are_tiny(self, tmp_path):
        out = tmp_path / "kernels.csv"
        code = main(
            ["check-kernels", "--n", "10", "--seed", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        residuals = [
            float(r.split(",")[6]) for r in rows if not r.endswith("nan")
        ]
        assert residuals and max(residuals) < 1e-13

    def test_rejects_bad_flags(self, capsys):
        assert main(["check-kernels", "--n", "0"]) == EXIT_CONFIG
        assert main(["check-kernels", "--eta", "1.5"]) == EXIT_CONFIG
        assert main(["check-kernels", "--uniform", "-1.0"]) == EXIT_CONFIG
        assert main(["check-kernels", "--seed", "-1"]) == EXIT_CONFIG
        assert "--seed cannot be negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--total-time", "0"],
            ["--total-time", "-1"],
            ["--total-time", "nan"],
            ["--total-time", "inf"],
            ["--uniform", "nan"],
            ["--uniform", "inf"],
        ],
    )
    def test_rejects_a_mesh_that_is_not_positive_and_finite(self, flags, capsys):
        assert main(["check-kernels"] + flags) == EXIT_CONFIG
        assert "must be positive and finite" in capsys.readouterr().err

    def test_rejects_a_horizon_that_overflows(self, capsys):
        # each flag is finite, but uniform * n is not
        assert main(["check-kernels", "--uniform", "1e308"]) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["check-kernels", "--out", str(blocker / "x")]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err

    def test_weights_are_the_kernels_bit_for_bit(self, capsys):
        assert main(["check-kernels"]) == EXIT_OK
        mesh = random_mesh(12, 1.0, 0)  # the default flags' mesh
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == sum(n + 1 for n in range(1, 13))
        for row in rows:
            n, _, b0, b1 = row.split(",")[:4]
            k = step_kernels(mesh.tau(int(n)), mesh.ratio(int(n)))
            assert (float(b0), float(b1)) == (k.b0, k.b1), row
