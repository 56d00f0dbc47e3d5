"""Golden outputs: every case of golden_cases against its store in tests/golden/.

A case passes when its rerun gives the stored exit code, the stored stdout,
exactly the stored set of artifact files and each file's stored bytes, so a
refactor that claims to keep the behaviour can be checked by running this
file. A mismatch shows the first differing lines of each file that moved.
A change that moves an output on purpose rewrites the store with

    PYTHONPATH=src python tests/golden_cases.py

and the diff of tests/golden/ lists what moved. The stored sweep_depth.svg
holds the nan coordinates svgplot currently writes for a constant log axis;
the change that fixes svgplot rewrites it.
"""

import difflib
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from golden_cases import (BIG_SEED_COMMANDS, HELP_COMMANDS, PLAN_SHOTS_CASES, README_COMMANDS,
                          VERIFY_Q3_SEEDS, outputs, stored, subparsers)

import nrqae
from nrqae.cli import _build_parser

DIFF_LINES = 20


def _first_diff(rel: str, want: bytes, got: bytes) -> str:
    lines = difflib.unified_diff(want.decode(errors="replace").splitlines(),
                                 got.decode(errors="replace").splitlines(),
                                 f"stored {rel}", f"rerun {rel}", lineterm="", n=1)
    return "\n".join(islice(lines, DIFF_LINES))


def check_case(name: str, tmp_path):
    got, want = outputs(name, tmp_path), stored(name)
    problems = []
    if sorted(got) != sorted(want):
        problems.append(f"files: stored {sorted(want)}, rerun {sorted(got)}")
    problems += [_first_diff(rel, want[rel], got[rel])
                 for rel in sorted(want.keys() & got.keys()) if want[rel] != got[rel]]
    if problems:
        pytest.fail(f"case {name} differs from tests/golden/{name}:\n" + "\n".join(problems),
                    pytrace=False)


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_config_artifacts(command, tmp_path):
    check_case(f"readme/{command}", tmp_path)


@pytest.mark.parametrize("seed", VERIFY_Q3_SEEDS)
def test_verify_perturbation_q3_artifacts(seed, tmp_path):
    check_case(f"verify-q3/seed-{seed}", tmp_path)


@pytest.mark.parametrize("command", BIG_SEED_COMMANDS)
def test_multi_word_seed_artifacts(command, tmp_path):
    check_case(f"big-seed/{command}", tmp_path)


@pytest.mark.parametrize("case", PLAN_SHOTS_CASES)
def test_plan_shots_outputs(case, tmp_path):
    check_case(f"plan-shots/{case}", tmp_path)


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_text(command, tmp_path):
    check_case(f"help/{command.replace(' ', '-')}", tmp_path)


def test_readme_quick_start_values(capsys):
    """The README "Quick start (library)" block prints the values its comments give."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Quick start (library)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 2
    for out, comment in zip(printed, comments):
        values, texts = out.split(), comment.split(", ")
        assert len(values) == len(texts), (out, comment)
        for value, text in zip(values, texts):
            if text.startswith("~"):  # a closed form the value approximates
                assert abs(float(value) - eval(text[1:], {"pi": np.pi})) < 1e-4, (value, text)
            else:
                assert f"{float(value):.{len(text.split('.')[1])}f}" == text, (value, text)
    assert abs(float(printed[0].split()[0]) - 0.7499933642391001) < 1e-9
    assert abs(float(printed[1]) - 0.7513080188473099) < 1e-9


def test_readme_cli_lines_parse_and_its_flag_table_matches_the_parser():
    """Every `nrqae` line of the README "CLI" block parses, and its table lists each flag."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines()]
    assert lines and all(words[0] == "nrqae" for words in lines)
    for words in lines:
        _build_parser().parse_args(words[1:])
    table = {row[0].strip(" `"): [flag.strip(" `") for flag in row[1].split(",")]
             for row in (line.strip("|").split("|") for line in section.splitlines()
                         if line.startswith("| `"))}
    assert table == {command: [flag for action in sub._actions
                               for flag in action.option_strings if flag not in ("-h", "--help")]
                     for command, sub in subparsers().items()}


def test_every_export_resolves():
    assert all(hasattr(nrqae, name) for name in nrqae.__all__)
