"""The README's code stays runnable as the API changes."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from seirvax.checks import CHECK_NAMES
from seirvax.scenario import load_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str = "python") -> str:
    """The first ```<language> block under the README heading `section`."""
    body = README.read_text().split(f"\n{section}\n", 1)[1]
    return body.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_runs(capsys):
    exec(compile(_block("## Library"), f"{README}:Library", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == pytest.approx(1000.0, abs=1.0)   # ~ 1000
    assert lines[1] == "True"


def test_readme_scenario_example_loads(tmp_path):
    # The grammar's example is a scenario the loader accepts, and each
    # [checks.<name>] section documents, set or commented out, exactly the
    # options of the checks' own table.
    text = _block("## Scenario file grammar", "ini")
    path = tmp_path / "example.ini"
    path.write_text(text)
    scenario = load_scenario(path)
    assert scenario.checks == {
        "conservation": {}, "positivity": {"v_lo": 0.0, "v_hi": 1.0},
        "identities": {}, "asymptotics": {"tail_fraction": 0.1, "rel_tol": 1e-3},
        "integral_limit": {"rel_tol": 0.01}}
    sections = dict(re.findall(r"^\[([\w.]+)\][^\n]*\n(.*?)(?=^\[|\Z)", text,
                               re.M | re.S))
    for check, options in CHECK_NAMES.items():
        keys = re.findall(r"^#? ?(\w+) = ", sections.get(f"checks.{check}", ""),
                          re.M)
        assert sorted(keys) == sorted(options), check
