"""Config parsing, validation, and the shipped sample files."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from acbdf2 import config
from acbdf2.config import _SCHEMA, ConfigError, RunConfig, parse_config
from acbdf2.experiments import MMS_EPS2, random_mesh
from acbdf2.runner import run_simulation
from acbdf2.time_mesh import solvability_bound

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
SECTIONS = [f.name for f in dataclasses.fields(RunConfig) if f.name != "explicit_keys"]


class TestSchema:
    @pytest.mark.parametrize("section", SECTIONS)
    def test_section_fields_are_exactly_its_keys(self, section):
        # every setting of a section is a config key and every key a setting
        fields = dataclasses.fields(getattr(RunConfig(), section))
        keys = {key for key in _SCHEMA if key.partition(".")[0] == section}
        assert {f"{section}.{f.name}" for f in fields} == keys

    def test_every_key_names_a_section(self):
        assert {key.partition(".")[0] for key in _SCHEMA} == set(SECTIONS)


class TestParsing:
    def test_empty_document_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg.domain.M == 128
        assert cfg.time.scheme == "uniform"
        assert cfg.explicit_keys == set()

    def test_comments_and_blanks_are_ignored(self):
        cfg = parse_config(
            """
            # a comment line
            domain.M = 64   # trailing comment

            time.T = 2.5
            """
        )
        assert cfg.domain.M == 64
        assert cfg.time.T == 2.5
        assert cfg.explicit_keys == {"domain.M", "time.T"}

    def test_snapshot_list(self):
        cfg = parse_config("output.snapshots = 0.5, 1.0\ntime.T = 2.0")
        assert cfg.output.snapshots == [0.5, 1.0]
        assert parse_config("output.snapshots =").output.snapshots == []

    def test_ratio_cap_off(self):
        # the cap is a float: a large one never binds, and no word turns it off
        for raw in ("off", "none"):
            with pytest.raises(ConfigError, match="is not float"):
                parse_config(f"adaptive.ratio_cap = {raw}")
        assert parse_config("adaptive.ratio_cap = 1e9").adaptive.ratio_cap == 1e9
        assert parse_config("adaptive.ratio_cap = 2.0").adaptive.ratio_cap == 2.0

    def test_last_assignment_wins(self):
        cfg = parse_config("domain.M = 32\ndomain.M = 64")
        assert cfg.domain.M == 64


class TestErrors:
    def test_every_problem_is_reported_with_its_line(self):
        doc = "domain.M = maybe\nno equals sign here\nbogus.key = 1\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(doc)
        errors = excinfo.value.errors
        assert len(errors) == 3
        assert errors[0].startswith("line 1:")
        assert "not int" in errors[0]
        assert errors[1].startswith("line 2:")
        assert errors[2].startswith("line 3:")
        assert "unknown key" in errors[2]

    @pytest.mark.parametrize(
        "key,value,typename",
        [
            ("domain.M", "1.5", "int"),
            ("domain.L", "wide", "float"),
            ("output.snapshots", "0.5, later", "float list"),
            ("adaptive.ratio_cap", "never", "float"),
            # a float must be finite
            ("domain.eps", "inf", "float"),
        ],
    )
    def test_parse_error_names_the_type(self, key, value, typename):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(f"{key} = {value}")
        assert excinfo.value.errors == [
            f"line 1: value '{value}' for '{key}' is not {typename}"
        ]

    def test_window_order_error_is_named(self):
        with pytest.raises(ConfigError, match="tau_min exceeds adaptive.tau_max"):
            parse_config("adaptive.tau_min = 0.2\nadaptive.tau_max = 0.1")

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ("domain.L = 0", "domain.L"),
            ("domain.M = 1", "domain.M"),
            ("domain.eps = 0", "domain.eps"),
            ("time.T = -1", "time.T"),
            ("time.scheme = euler", "time.scheme"),
            ("time.tau = 0", "time.tau"),
            ("time.n = 0", "time.n"),
            ("time.seed = -1", "time.seed"),
            ("adaptive.rho = 1.5", "adaptive.rho"),
            ("adaptive.ratio_cap = 0.5", "adaptive.ratio_cap"),
            ("init.kind = waves", "init.kind"),
            ("init.kind = file", "init.path"),
            ("init.amp = -0.1", "init.amp"),
            ("init.seed = -1", "init.seed"),
            ("newton.tol = 0", "newton.tol"),
            ("newton.tol = 1e-17", "newton.tol"),
            ("newton.max_iter = 0", "newton.max_iter"),
            # a key the schema no longer has is unknown
            ("newton.lin_rtol = 1.0", "newton.lin_rtol"),
            ("adaptive.norm = l3", "adaptive.norm"),
            ("constraints.s0 = maybe", "constraints.s0"),
            ("output.snapshots = 5.0", "outside"),
        ],
    )
    def test_validation_messages(self, doc, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(doc)


class TestSolvability:
    """Validation checks values only; the run checks the fixed mesh it builds.

    Each step must satisfy ``tau < (1 + 2 r) / (1 + r)``, and a mesh that
    fails is refused before the run makes its output directory.
    """

    def test_uniform_first_step_at_the_bound(self, tmp_path):
        # the first step has ratio 0 and bound 1; the shipped coarsening
        # run at tau = 2 would stop there
        out = tmp_path / "out"
        text = (CONFIGS_DIR / "coarsening_uniform.conf").read_text()
        cfg = parse_config(text + f"time.tau = 2\noutput.dir = {out}\n")
        with pytest.raises(ConfigError) as excinfo:
            run_simulation(cfg)
        assert excinfo.value.errors == [
            "step 1 of the time mesh, tau = 2 at ratio 0, reaches the solvability bound 1"
        ]
        assert not out.exists()
        small = "domain.M = 8\noutput.dir =\ntime.T = {0}\ntime.tau = {0}\n"
        with pytest.raises(ConfigError, match="step 1 of the time mesh"):
            run_simulation(parse_config(small.format(1)))
        assert run_simulation(parse_config(small.format(0.99))).summary["total_steps"] == 1

    def test_single_step_random_mesh(self, tmp_path):
        out = tmp_path / "out"
        text = (CONFIGS_DIR / "mms_single.conf").read_text()
        cfg = parse_config(text + f"time.n = 1\noutput.dir = {out}\n")
        with pytest.raises(ConfigError, match="step 1 of the time mesh, tau = 1 at ratio 0"):
            run_simulation(cfg)
        assert not out.exists()

    def test_random_mesh_names_its_first_failing_step(self):
        # seed 12 draws steps 0.48, 1.81, 0.36, 0.34: the second step, at
        # ratio 3.78, lies past its bound 1.79
        doc = (
            "domain.M = 8\noutput.dir =\n"
            "time.scheme = random-mesh\ntime.T = 3\ntime.n = 4\ntime.seed = 12\n"
        )
        with pytest.raises(ConfigError, match="step 2 of the time mesh, tau = 1.81"):
            run_simulation(parse_config(doc))
        res = run_simulation(parse_config(doc.replace("time.T = 3", "time.T = 1")))
        assert res.summary["total_steps"] == 4

    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_random_mesh_within_the_unit_horizon_is_never_drawn(self, n):
        # with more than one step on T <= 1 no step reaches its bound: every
        # step is at most T <= 1 and every bound at least 1, and a first step
        # of the whole horizon leaves the others no time
        for seed in range(200):
            mesh = random_mesh(n, 1.0, seed)
            assert np.all(mesh.steps < solvability_bound(mesh.ratios)), seed

    def test_adaptive_runs_are_not_checked_ahead(self):
        # the controller picks its steps during the run
        cfg = parse_config("time.scheme = adaptive\ntime.tau = 2\nadaptive.tau_max = 2\n")
        assert cfg.time.mesh() is None

    def test_a_mesh_that_cannot_be_built_is_a_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(f"time.T = 1e300\ntime.tau = 1e-300\noutput.dir = {out}\n")
        with pytest.raises(ConfigError, match="time mesh"):
            run_simulation(cfg)
        assert not out.exists()

    def test_a_uniform_run_builds_its_mesh_once(self, monkeypatch):
        # parse checks values only; the run builds the mesh and checks it
        built = []
        mesh = config.TimeConfig.mesh

        def counted(time):
            built.append(time)
            return mesh(time)

        monkeypatch.setattr(config.TimeConfig, "mesh", counted)
        run_simulation(parse_config("domain.M = 8\ntime.T = 0.2\ntime.tau = 0.1\noutput.dir =\n"))
        assert len(built) == 1


class TestMmsCoupling:
    def test_minimal_document_is_valid_and_fixes_eps(self):
        cfg = parse_config("init.kind = mms")
        assert cfg.domain.eps == pytest.approx(math.sqrt(MMS_EPS2), rel=1e-15)

    def test_matching_explicit_eps_is_accepted(self):
        eps = math.sqrt(MMS_EPS2)
        cfg = parse_config(f"init.kind = mms\ndomain.eps = {eps:.17g}")
        assert cfg.domain.eps == pytest.approx(eps, rel=1e-15)

    def test_conflicting_eps_is_rejected(self):
        with pytest.raises(ConfigError, match="fixes domain.eps"):
            parse_config("init.kind = mms\ndomain.eps = 0.05")

    def test_wrong_domain_is_rejected(self):
        with pytest.raises(ConfigError, match="unit square"):
            parse_config("init.kind = mms\ndomain.L = 2.0")


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "four_bubble_adaptive.conf",
            "four_bubble_uniform.conf",
            "coarsening_uniform.conf",
            "mms_single.conf",
        ],
    )
    def test_parses_cleanly(self, name):
        cfg = parse_config((CONFIGS_DIR / name).read_text())
        assert cfg.time.T > 0.0

    def test_four_bubble_pair_shares_the_physics(self):
        ada = parse_config((CONFIGS_DIR / "four_bubble_adaptive.conf").read_text())
        uni = parse_config((CONFIGS_DIR / "four_bubble_uniform.conf").read_text())
        for attr in ("L", "M", "eps", "origin"):
            assert getattr(ada.domain, attr) == getattr(uni.domain, attr)
        assert ada.time.T == uni.time.T
        assert ada.time.scheme == "adaptive"
        assert uni.time.scheme == "uniform"
