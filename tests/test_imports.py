"""What a process imports: the package's lazy exports, and the layers each
CLI command loads, each command in a fresh interpreter."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import seirvax
from seirvax.cli import main

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "scenarios" / "full_immunization.ini"

# Runs `main` on its arguments and prints the command's exit code, then
# the seirvax layers, and `json` and `numpy` if the process imported them.
_PROBE = """\
import contextlib, io, sys
from seirvax.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules
                    if m.startswith("seirvax.") or m in ("json", "numpy")))
"""


def _fresh(*args: str) -> list[str]:
    """stdout of a fresh interpreter that imports the package from src/."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120, check=True)
    return proc.stdout.split()


@pytest.fixture(scope="module")
def shipped_csv(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("shipped")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", str(SHIPPED), "--out-dir", str(out)]) == 0
    return out / "full_immunization.csv"


# The README's four commands (and equilibria without --json), and what
# each must leave unimported; `zerodyn` computes in plain floats, with
# no numpy.
COMMANDS = {
    "simulate": (lambda out, csv: ["simulate", str(SHIPPED), "--out-dir", out],
                 {"equilibria", "normal_form"}),
    "equilibria": (lambda out, csv: ["equilibria", "--beta", "0.25", "--json",
                                     f"{out}/eq.json"],
                   {"laws", "integrator", "normal_form", "checks", "scenario",
                    "svgplot"}),
    "equilibria without --json": (
        lambda out, csv: ["equilibria", "--beta", "0.25"],
        {"laws", "integrator", "normal_form", "checks", "scenario", "svgplot",
         "json"}),
    "zerodyn": (lambda out, csv: ["zerodyn", "--z2", "300", "--z3", "400",
                                  "--z4", "300", "--t-end", "1000",
                                  "--out-dir", out],
                {"equilibria", "scenario", "svgplot", "numpy"}),
    "verify": (lambda out, csv: ["verify", str(csv), str(SHIPPED)],
               {"equilibria", "normal_form", "svgplot"}),
}


@pytest.mark.parametrize("case", list(COMMANDS))
def test_command_imports_only_its_layers(case, tmp_path, shipped_csv):
    argv, skipped = COMMANDS[case]
    code, *loaded = _fresh("-c", _PROBE, *argv(str(tmp_path), shipped_csv))
    assert code == "0"
    assert "seirvax.cli" in loaded
    unwanted = {m if m in ("json", "numpy") else f"seirvax.{m}"
                for m in skipped}
    assert not unwanted & set(loaded), loaded


def test_package_import_loads_no_layer():
    loaded = _fresh("-c", "import sys, seirvax; print(*sorted(sys.modules))")
    assert "numpy" not in loaded
    assert not [m for m in loaded if m.startswith("seirvax.")]


def test_every_export_resolves_and_is_listed():
    listed = dir(seirvax)
    for name in seirvax.__all__:
        assert getattr(seirvax, name) is not None
        assert name in listed
    assert callable(seirvax.integrate)   # the function, not its module
    assert type(seirvax) is types.ModuleType   # no subclass guards a name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        seirvax.no_such_name


def test_integrate_stays_the_function_once_its_module_loads():
    # checks imports the submodule seirvax.integrate before anything asks
    # the package for the name
    assert _fresh("-c", "import seirvax.checks\n"
                        "from seirvax import integrate\n"
                        "print(callable(integrate))") == ["True"]
