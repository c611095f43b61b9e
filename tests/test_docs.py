"""The README's code stays runnable as the API changes."""

from __future__ import annotations

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading `section`."""
    body = README.read_text().split(f"\n{section}\n", 1)[1]
    return body.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_block_runs(capsys):
    exec(compile(_python_block("## Library"), f"{README}:Library", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == pytest.approx(1000.0, abs=1.0)   # ~ 1000
    assert lines[1] == "True"
