"""The README's config block and command lines against the code."""

import argparse
import re
from pathlib import Path

from acbdf2.cli import build_parser
from acbdf2.config import _SCHEMA, parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    """Text of one ``## title`` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def indented_block(text, first):
    """The indented block of ``text`` whose first line starts with ``first``."""
    for block in re.split(r"\n(?! {4}|\n {4})", text):
        lines = [ln[4:] for ln in block.splitlines() if ln.startswith("    ")]
        if lines and lines[0].startswith(first):
            return "\n".join(lines)
    raise AssertionError(f"no indented block starting with {first!r}")


def test_config_block_lists_exactly_the_schema_keys():
    block = indented_block(section("Configuration"), "domain.")
    keys = re.findall(r"^([\w.]+)\s*=", block, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_SCHEMA)


def test_config_block_parses():
    parse_config(indented_block(section("Configuration"), "domain."))


def subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_command_lines_match_the_parser():
    lines = indented_block(section("Command line"), "acbdf2 ").splitlines()
    subs = subcommands()
    assert sorted(line.split()[1] for line in lines) == sorted(subs)
    for line in lines:
        sub = subs[line.split()[1]]
        shown = dict(re.findall(r"\[(--[\w-]+) ?([^\]\s]*)", line))
        flags = {
            opt: action
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        assert set(shown) == set(flags), line
        for flag, value in shown.items():
            # a value that is not a placeholder is the default the parser uses
            if value[:1].isdigit():
                assert value == str(flags[flag].default), (line, flag)
