"""Config parsing, validation, and the shipped sample files."""

import dataclasses
import math
from pathlib import Path

import pytest

from acbdf2.config import _SCHEMA, ConfigError, RunConfig, parse_config
from acbdf2.experiments import MMS_EPS2

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
        assert cfg.output.csv is True
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

    def test_bool_spellings(self):
        for raw, expect in [
            ("on", True),
            ("true", True),
            ("yes", True),
            ("1", True),
            ("off", False),
            ("false", False),
            ("no", False),
            ("0", False),
        ]:
            assert parse_config(f"output.csv = {raw}").output.csv is expect

    def test_snapshot_list(self):
        cfg = parse_config("output.snapshots = 0.5, 1.0\ntime.T = 2.0")
        assert cfg.output.snapshots == [0.5, 1.0]
        assert parse_config("output.snapshots =").output.snapshots == []

    def test_ratio_cap_off(self):
        assert parse_config("adaptive.ratio_cap = off").adaptive.ratio_cap is None
        assert parse_config("adaptive.ratio_cap = none").adaptive.ratio_cap is None
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
            ("output.csv", "maybe", "on/off"),
            ("output.snapshots", "0.5, later", "float list"),
            ("adaptive.ratio_cap", "never", "float or 'off'"),
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
            ("adaptive.norm = l3", "adaptive.norm"),
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
            ("constraints.s0 = maybe", "constraints.s0"),
            ("output.snapshots = 5.0", "outside"),
        ],
    )
    def test_validation_messages(self, doc, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(doc)


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
