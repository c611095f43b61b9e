"""Scenario parsing, CLI subcommands, CSV round-trips, exit codes."""

from __future__ import annotations

import contextlib
import gc
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

import seirvax.cli as cli
from seirvax import (ImmuneFeedback, Saturated, ScenarioError, __version__,
                     integrate)
from seirvax.checks import (CHECK_NAMES, check_asymptotics, check_integral_limit,
                            monitor_positivity)
from seirvax.cli import (CSV_HEADER, _write_csv, main, read_trajectory_csv,
                         run_checks, write_trajectory_csv)
from seirvax.integrator import MAX_STEPS
from seirvax.laws import SCENARIO_LAWS
from seirvax.scenario import _CLIP_KEYS, _TYPED_SECTIONS, build_law, load_scenario

SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "full_immunization.ini"

P1_BLOCK = """\
[params]
N = 1000
mu = 0.01
omega = 0.02
beta = 0.9
sigma = 0.2
gamma = 0.2
"""

INITIAL_BLOCK = """\
[initial]
S = 700
E = 200
I = 100
R = 0
"""

LAW_BLOCK = """\
[law]
name = immune_feedback
g = 0.0
g1 = 0.03
"""

INTEGRATOR_BLOCK = """\
[integrator]
t_end = 400
dt = 0.01
sampling_stride = 100
"""

DENSE_BLOCK = INTEGRATOR_BLOCK + "adaptive = on\ndense = on\n"


def write_scenario(path, *, params=P1_BLOCK, initial=INITIAL_BLOCK,
                   law=LAW_BLOCK, integrator=INTEGRATOR_BLOCK, extra=""):
    path.write_text("\n".join((params, initial, law, integrator, extra)))
    return str(path)


class TestScenarioParsing:
    def test_happy_path(self, tmp_path):
        sc = load_scenario(write_scenario(
            tmp_path / "s.ini",
            extra="[checks]\nconservation = on\n\n[outputs]\ncsv = out.csv\n"))
        assert sc.params.N == 1000.0
        assert sc.law == ImmuneFeedback(0.0, 0.03)
        assert sc.config.t_end == 400.0
        assert "conservation" in sc.checks
        assert sc.outputs == {"csv": "out.csv"}

    def test_initial_sum_mismatch_rejected(self, tmp_path):
        bad = INITIAL_BLOCK.replace("S = 700", "S = 500")
        with pytest.raises(ScenarioError, match="sums to"):
            load_scenario(write_scenario(tmp_path / "s.ini", initial=bad))

    def test_unknown_law_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown law"):
            load_scenario(write_scenario(
                tmp_path / "s.ini", law="[law]\nname = magic\n"))

    def test_missing_gain_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="needs gain"):
            load_scenario(write_scenario(
                tmp_path / "s.ini", law="[law]\nname = immune_feedback\ng = 0\n"))

    def test_bad_number_diagnosed(self, tmp_path):
        with pytest.raises(ScenarioError, match="not a number"):
            load_scenario(write_scenario(
                tmp_path / "s.ini",
                params=P1_BLOCK.replace("mu = 0.01", "mu = fast")))

    def test_structural_error_carries_line_info(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[params\nN = 1000\n")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(str(path))

    def test_missing_section(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(P1_BLOCK)
        with pytest.raises(ScenarioError, match=r"missing section \[initial\]"):
            load_scenario(str(path))

    def test_clip_wraps_in_saturation(self, tmp_path):
        sc = load_scenario(write_scenario(
            tmp_path / "s.ini",
            law="[law]\nname = immune_feedback\ng = 0.0\ng1 = 0.03\n"
                "clip_lo = 0\nclip_hi = 1\n"))
        assert sc.law == Saturated(ImmuneFeedback(0.0, 0.03), 0.0, 1.0)

    def test_build_law_rejects_extras(self):
        with pytest.raises(ScenarioError, match="unknown gain"):
            build_law("zero", {"g": 1.0})


class TestSimulate:
    def test_theorem3_scenario_passes(self, tmp_path, capsys):
        # g = 0, g1 = mu+omega: full immunization; final R near N.
        path = write_scenario(
            tmp_path / "s.ini",
            extra="[checks]\nconservation = on\nidentities = on\n"
                  "asymptotics = on\n\n[outputs]\ncsv = t.csv\nsvg = t.svg\n"
                  "report = t.txt\n")
        code = main(["simulate", path, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        data = read_trajectory_csv(tmp_path / "t.csv")
        assert abs(data["R"][-1] - 1000.0) <= 1e-3 * 1000.0
        assert (tmp_path / "t.svg").read_text().startswith("<svg")
        assert "overall: PASS" in (tmp_path / "t.txt").read_text()

    def test_invalid_initial_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.ini",
                              initial=INITIAL_BLOCK.replace("S = 700", "S = 1"))
        code = main(["simulate", path])
        assert code == 1
        assert "sums to" in capsys.readouterr().err

    def test_failing_required_gain_exits_one(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "s.ini",
            law="[law]\nname = susceptible_linear\ng = -0.5\n")
        code = main(["simulate", path])
        assert code == 1
        assert "g >= 0" in capsys.readouterr().err

    def test_check_failure_exits_two(self, tmp_path, capsys):
        # V in [0, 1] fails for this law (limit V = 3), exit code 2.
        path = write_scenario(
            tmp_path / "s.ini",
            law="[law]\nname = susceptible_linear\ng = 0.1\n",
            extra="[checks]\npositivity = on\n")
        code = main(["simulate", path, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_assumption1_advisory(self, tmp_path, capsys):
        # E0 = 100 <= (mu+gamma)/sigma * I0 = 105: one warning line, and
        # the exit code stays the checks' own.
        initial = INITIAL_BLOCK.replace("E = 200", "E = 100").replace(
            "R = 0", "R = 100")
        path = write_scenario(tmp_path / "s.ini", initial=initial,
                              extra="[checks]\nconservation = on\n")
        code = main(["simulate", path, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and "overall: PASS" in out
        assert [line for line in out.splitlines() if "Assumption 1" in line] \
            == ["warning: Assumption 1 not met: E0 > (mu+gamma)/sigma * I0"]
        assert main(["simulate", str(SHIPPED), "--out-dir", str(tmp_path)]) == 0
        assert "Assumption 1" not in capsys.readouterr().out

    def test_assumption1_undefined_incidence_clause(self, tmp_path, capsys):
        # mu = sigma = 0 with I0 > 0: both clauses that divide are reported
        # as violated instead of raising, and the exit code stays the checks'.
        params = P1_BLOCK.replace("mu = 0.01", "mu = 0").replace(
            "sigma = 0.2", "sigma = 0")
        path = write_scenario(tmp_path / "s.ini", params=params,
                              law="[law]\nname = zero\n",
                              extra="[checks]\nconservation = on\n")
        code = main(["simulate", path, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and "overall: PASS" in out
        assert [line for line in out.splitlines() if "Assumption 1" in line] \
            == ["warning: Assumption 1 not met: sigma zero",
                "warning: Assumption 1 not met: mu+sigma zero"]

    def test_immune_feedback_at_rounded_edge(self, tmp_path, capsys):
        # g1 = mu+omega+g exactly, though the float sum rounds below 0.01.
        law = LAW_BLOCK.replace("g = 0.0", "g = -0.02").replace(
            "g1 = 0.03", "g1 = 0.01")
        path = write_scenario(
            tmp_path / "s.ini", law=law,
            integrator=INTEGRATOR_BLOCK.replace("t_end = 400", "t_end = 2000"),
            extra="[checks]\nasymptotics = on\nintegral_limit = on\n")
        code = main(["simulate", path, "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and "overall: PASS" in out

    def test_overrides(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "s.ini",
            extra="[outputs]\ncsv = t.csv\n")
        code = main(["simulate", path, "--out-dir", str(tmp_path),
                     "--t-end", "2", "--dt", "0.5"])
        assert code == 0
        data = read_trajectory_csv(tmp_path / "t.csv")
        assert data["t"][-1] == pytest.approx(2.0)
        assert len(data["t"]) == 2  # stride 100 > 4 steps: start + final only


@pytest.fixture(scope="module")
def shipped_run():
    sc = load_scenario(SHIPPED)
    return integrate(sc.initial, sc.params, sc.law, sc.config)


class TestCsvRoundTrip:
    def test_full_precision(self, tmp_path, p1, mixed_state):
        from seirvax import IntegratorConfig, ZeroVax, integrate
        tr = integrate(mixed_state, p1, ZeroVax(),
                       IntegratorConfig(t_end=3.0, dt=0.01, sampling_stride=7))
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, tr)
        data = read_trajectory_csv(path)
        for name, col in (("t", tr.t), ("S", tr.S), ("E", tr.E), ("I", tr.I),
                          ("R", tr.R), ("V", tr.V), ("u", tr.u)):
            assert np.array_equal(data[name], col)

    def test_shipped_run_is_bitwise(self, tmp_path, shipped_run):
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, shipped_run)
        data = read_trajectory_csv(path)
        for name in ("t", "S", "E", "I", "R", "V", "u"):
            assert data[name].tobytes() == getattr(shipped_run, name).tobytes(), name

    def test_memory_is_bounded(self, tmp_path, shipped_run):
        # 12001 rows: the seven float64 columns alone take 0.67 MB, and a
        # whole-table write or read would take several times that.
        assert len(shipped_run) == 12001
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, shipped_run)
        read_trajectory_csv(path)   # first calls allocate once per process
        peaks = []
        for step in (lambda: write_trajectory_csv(path, shipped_run),
                     lambda: read_trajectory_csv(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        write_peak, read_peak = peaks
        assert write_peak <= 2_000_000
        assert read_peak <= 1_500_000

    def test_special_values_round_trip(self, tmp_path):
        cols = np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308, np.inf,
                         -np.inf, 0.1, 1.0 / 3.0, 2.0 ** -1074 * 3, -1e-300,
                         123456789.125, 1e22, 1e23, np.nan]).reshape(-1, 7)
        path = tmp_path / "t.csv"
        _write_csv(path, CSV_HEADER, tuple(cols.T))
        data = read_trajectory_csv(path)
        got = np.column_stack([data[name] for name in CSV_HEADER.split(",")])
        assert got.tobytes() == cols.tobytes()   # nan is the one quiet NaN

    @pytest.mark.parametrize("body, message", [
        ("0,1,2,3,4,5,6\n1,2,3\n", "CSV line 3: expected 7 fields"),
        ("0,1,2,3,4,5,6\n\n1,2,x,4,5,6,7\n", "CSV line 4: could not convert"),
        ("", "CSV contains no samples"),
        ("\n\n", "CSV contains no samples"),
    ], ids=["fields", "number", "empty", "blank"])
    @pytest.mark.filterwarnings("error")   # no numpy empty-input warning
    def test_malformed_rows_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + body)
        with pytest.raises(ScenarioError, match=message):
            read_trajectory_csv(path)

    def test_rows_numpy_refuses_read_as_float_reads_them(self, tmp_path,
                                                         monkeypatch):
        # numpy's reader refuses digit grouping, which `float` accepts: the
        # file is read again and parsed row by row, each value by `float`.
        import seirvax.cli as cli
        fallbacks = []

        def parse_rows(lines, _fn=cli._parse_rows):
            fallbacks.append(_fn(lines))
            return fallbacks[-1]

        monkeypatch.setattr(cli, "_parse_rows", parse_rows)
        rows = ["1_000.0,2,3,4,5,6,7", "0.5,1_0,2,3,4,5,-6"]
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        data = read_trajectory_csv(path)
        got = np.column_stack([data[name] for name in CSV_HEADER.split(",")])
        assert len(fallbacks) == 1
        assert got.tolist() == [[float(v) for v in row.split(",")]
                                for row in rows]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(CSV_HEADER + "\n0,1,2,3,4,5,6\n\n1,2,3,4,5,6,7\n")
        assert read_trajectory_csv(path)["u"].tolist() == [6.0, 7.0]

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,S,E,I,R,V,u\n0,1,2,3,4,5,6\n")
        with pytest.raises(ScenarioError, match="header"):
            read_trajectory_csv(path)


class TestVerify:
    @pytest.fixture
    def run_artifacts(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.ini",
            extra="[checks]\nconservation = on\nidentities = off\n\n"
                  "[outputs]\ncsv = t.csv\n")
        assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
        return tmp_path / "t.csv", path

    def test_round_trip_outcomes(self, run_artifacts, capsys):
        csv_path, scenario_path = run_artifacts
        code = main(["verify", str(csv_path), scenario_path])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_tampered_column_fails_conservation(self, run_artifacts, capsys):
        csv_path, scenario_path = run_artifacts
        lines = csv_path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[4] = repr(float(parts[4]) + 1.0)   # R column
        lines[3] = ",".join(parts)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(csv_path), scenario_path])
        assert code == 2
        assert "FAIL  conservation" in capsys.readouterr().out

    def test_tampered_u_column_exits_one(self, run_artifacts, capsys):
        csv_path, scenario_path = run_artifacts
        lines = csv_path.read_text().splitlines()
        t = lines[3].split(",")[0]
        lines[3] = lines[3].rsplit(",", 1)[0] + ",12345.0"
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(csv_path), scenario_path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "u column" in err and f"t = {t}" in err

    def test_non_monotone_time_exits_one(self, run_artifacts, capsys):
        csv_path, scenario_path = run_artifacts
        lines = csv_path.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(csv_path), scenario_path])
        assert code == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_header_mismatch_exits_one(self, run_artifacts, capsys):
        csv_path, scenario_path = run_artifacts
        text = csv_path.read_text().replace("t,S,E,I,R,V,u", "t,S,E,I,R,V")
        csv_path.write_text(text)
        assert main(["verify", str(csv_path), scenario_path]) == 1

    def test_verifies_a_run_at_an_overridden_step(self, tmp_path, capsys):
        # The identity suite judges the samples alone, so a run made with
        # --dt other than the scenario's (spacing 0.125 against dt 0.01)
        # replays as it passed.
        path = write_scenario(
            tmp_path / "s.ini",
            integrator="[integrator]\nt_end = 100\ndt = 0.01\n"
                       "sampling_stride = 10\n",
            extra="[checks]\nconservation = on\nidentities = on\n\n"
                  "[outputs]\ncsv = t.csv\n")
        assert main(["simulate", path, "--out-dir", str(tmp_path),
                     "--dt", "0.0125"]) == 0
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "t.csv"), path]) == 0
        assert "PASS  identity_suite" in capsys.readouterr().out

    def test_nan_tail_fails_asymptotics(self, tmp_path, capsys):
        # The shipped run with its last 100 I values NaN, judged by the
        # asymptotics check alone: the NaN reaches its worst value.
        assert main(["simulate", str(SHIPPED), "--out-dir", str(tmp_path)]) == 0
        csv_path = tmp_path / "full_immunization.csv"
        lines = csv_path.read_text().splitlines()
        for k in range(len(lines) - 100, len(lines)):
            parts = lines[k].split(",")
            parts[3] = "nan"   # I column
            lines[k] = ",".join(parts)
        csv_path.write_text("\n".join(lines) + "\n")
        scenario = SHIPPED.read_text().replace(
            "conservation = on\nasymptotics = on\nintegral_limit = on\n",
            "asymptotics = on\n")
        assert scenario.count("= on") == 3   # adaptive, dense, asymptotics
        (tmp_path / "s.ini").write_text(scenario)
        capsys.readouterr()
        assert main(["verify", str(csv_path), str(tmp_path / "s.ini")]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "FAIL  asymptotics: worst=nan tol=0.001 at t=1200", "overall: FAIL"]


class TestEquilibriaCommand:
    def test_p1_report(self, tmp_path, capsys):
        out_json = tmp_path / "eq.json"
        code = main(["equilibria", "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "endemic: S=245.000000" in out
        assert "disease_free" in out
        payload = json.loads(out_json.read_text())
        assert payload["endemic_exists"]
        kinds = [e["kind"] for e in payload["equilibria"]]
        assert kinds == ["disease_free", "endemic"]

    def test_no_endemic_branch(self, capsys):
        code = main(["equilibria", "--beta", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no endemic equilibrium" in out

    def test_sigma_neq_gamma_exits_one(self, capsys):
        code = main(["equilibria", "--gamma", "0.25"])
        assert code == 1
        assert "sigma == gamma" in capsys.readouterr().err

    def test_mu_zero_special_branch(self, capsys):
        code = main(["equilibria", "--mu", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mu_zero_special" in out

    def test_small_mu_endemic_point(self, capsys):
        # The endemic residual (1.8e-15) exceeds 1e-8*mu*N = 1e-15 but not
        # the rounding of the field's terms at the point.
        code = main(["equilibria", "--mu", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "endemic: S=222.222222" in out


class TestZerodynCommand:
    def test_disease_free_start_constant(self, tmp_path, capsys):
        code = main(["zerodyn", "--z2", "1000", "--z3", "0", "--z4", "0",
                     "--t-end", "100", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS  sum conservation" in out
        header = (tmp_path / "zerodyn.csv").read_text().splitlines()[0]
        assert header == "t,z2,z3,z4,sum"

    def test_random_population_start_passes(self, tmp_path, capsys):
        code = main(["zerodyn", "--z2", "300", "--z3", "400", "--z4", "300",
                     "--t-end", "1000", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS  sum conservation" in out
        assert "PASS  boundedness" in out

    def test_names_its_scheme_and_samples(self, tmp_path, capsys):
        # The README command: the dense pair writes the fixed grid's 1001
        # sample times (every 100th of dt = 0.01 over 1000 days), bitwise.
        code = main(["zerodyn", "--z2", "300", "--z3", "400", "--z4", "300",
                     "--t-end", "1000", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("scheme: adaptive rel_tol=1e-08 abs_tol=1e-10 "
                            "dense, samples=1001")
        # the verdicts print as checks do: worst value against tolerance
        assert lines[2].startswith("PASS  sum conservation: worst=")
        assert lines[2].endswith(" tol=1e-06")
        assert lines[3] == "PASS  boundedness in [0, C]: worst=0 tol=1e-06"
        t = np.loadtxt(tmp_path / "zerodyn.csv", delimiter=",", skiprows=1,
                       usecols=0)
        assert t.tobytes() == (0.01 * np.arange(0, 100001, 100)).tobytes()

    def test_off_population_start_fails_conservation(self, tmp_path, capsys):
        # sum != N: the flow pulls the sum toward N, reported honestly.
        code = main(["zerodyn", "--z2", "100", "--z3", "100", "--z4", "100",
                     "--t-end", "200", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "FAIL  sum conservation" in capsys.readouterr().out

    def test_negative_start_exits_one(self, tmp_path, capsys):
        code = main(["zerodyn", "--z2", "-1", "--z3", "0", "--z4", "0",
                     "--out-dir", str(tmp_path)])
        assert code == 1


# Every option of every check in the table, except v_lo and v_hi, which
# cannot go with bounds = corollary1; the test runs them in a second
# scenario. Parameters in the constrained-gain regime keep V in [0, 1]
# under the canonical immune-feedback law.
ALL_CHECKS_SCENARIO = dict(
    params=P1_BLOCK.replace("mu = 0.01", "mu = 0.5").replace(
        "omega = 0.02", "omega = 0.0"),
    law="[law]\nname = constrained_immune_feedback\ng = -0.1\n",
    integrator="[integrator]\nt_end = 60\ndt = 0.01\n",
    extra="[checks]\nconservation = on\npositivity = on\nidentities = on\n"
          "asymptotics = on\nintegral_limit = on\n\n"
          "[checks.positivity]\nbounds = corollary1\nalpha = 0.9\n\n"
          "[checks.asymptotics]\ntail_fraction = 0.2\nrel_tol = 2e-3\n\n"
          "[checks.integral_limit]\nrel_tol = 0.02\n")


def test_all_checks_with_every_option(tmp_path, capsys):
    path = write_scenario(tmp_path / "s.ini", **ALL_CHECKS_SCENARIO)
    sc = load_scenario(path)
    assert sc.checks == {
        "conservation": {}, "identities": {},
        "positivity": {"bounds": "corollary1", "alpha": 0.9},
        "asymptotics": {"tail_fraction": 0.2, "rel_tol": 2e-3},
        "integral_limit": {"rel_tol": 0.02}}
    report = run_checks(integrate(sc.initial, sc.params, sc.law, sc.config),
                        sc.checks)
    by_name = {c.name: c for c in report.checks}
    assert list(by_name) == ["conservation", "positivity", "identity_suite",
                             "asymptotics", "integral_limit"]
    assert "V in corollary1 range" in by_name["positivity"].details
    assert by_name["asymptotics"].tolerance == 2e-3
    limit = by_name["integral_limit"].details["limit"]
    assert by_name["integral_limit"].tolerance == 0.02 * abs(limit)
    assert report.all_passed
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    v_range = dict(ALL_CHECKS_SCENARIO, extra=ALL_CHECKS_SCENARIO["extra"].replace(
        "bounds = corollary1\nalpha = 0.9", "v_lo = 0.0\nv_hi = 1.0"))
    sc = load_scenario(write_scenario(tmp_path / "v.ini", **v_range))
    assert sc.checks["positivity"] == {"v_lo": 0.0, "v_hi": 1.0}
    report = run_checks(integrate(sc.initial, sc.params, sc.law, sc.config),
                        sc.checks)
    by_name = {c.name: c for c in report.checks}
    assert "V in [0, 1]" in by_name["positivity"].details
    assert report.all_passed


def test_adaptive_scenario_runs(tmp_path, capsys):
    path = write_scenario(
        tmp_path / "s.ini",
        integrator="[integrator]\nt_end = 50\ndt = 0.01\nadaptive = on\n"
                   "rel_tol = 1e-9\nabs_tol = 1e-9\n",
        extra="[checks]\nconservation = on\n\n[outputs]\ncsv = t.csv\n")
    code = main(["simulate", path, "--out-dir", str(tmp_path)])
    assert code == 0
    data = read_trajectory_csv(tmp_path / "t.csv")
    assert data["t"][-1] == pytest.approx(50.0, abs=1e-9)


@pytest.mark.parametrize("integrator, window", [
    (INTEGRATOR_BLOCK, "window: t0=0 t_end=400 dt=0.01 samples=401"),
    (INTEGRATOR_BLOCK + "adaptive = on\n",
     "window: t0=0 t_end=400 adaptive rel_tol=1e-08 abs_tol=1e-10 samples="),
    (DENSE_BLOCK,
     "window: t0=0 t_end=400 adaptive rel_tol=1e-08 abs_tol=1e-10 dense "
     "samples=401"),
], ids=["fixed", "adaptive", "dense"])
def test_report_window_names_the_scheme(tmp_path, capsys, integrator, window):
    path = write_scenario(tmp_path / "s.ini", integrator=integrator,
                          extra="[checks]\nconservation = on\n")
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].startswith(window), lines[3]


def test_scenario_policy_and_output_zeroing(tmp_path, capsys):
    law = "[law]\nname = output_zeroing\n"
    integrator = "[integrator]\nt_end = 5\ndt = 0.01\n"
    sc = load_scenario(write_scenario(tmp_path / "s.ini", law=law,
                                      integrator=integrator))
    from seirvax import OutputZeroing
    assert sc.law == OutputZeroing()
    # The steppers have no positivity policy: the key is unknown.
    path = write_scenario(tmp_path / "p.ini", law=law,
                          integrator=integrator + "positivity_policy = project\n")
    assert main(["simulate", path, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "unknown key 'positivity_policy'" in err[0]


def _simulate_argv(tmp_path, *flags, **blocks):
    return ["simulate", write_scenario(tmp_path / "s.ini", **blocks),
            "--out-dir", str(tmp_path), *flags]


def _zerodyn_argv(tmp_path, *flags):
    return ["zerodyn", "--z2", "300", "--z3", "400", "--z4", "300",
            "--out-dir", str(tmp_path), *flags]


def _shipped_corollary1_argv(tmp_path, alpha):
    """simulate on the shipped scenario with the positivity check on,
    against the Corollary 1 bound at `alpha`."""
    text = SHIPPED.read_text().replace("conservation = on\n",
                                       "conservation = on\npositivity = on\n")
    path = tmp_path / "corollary1.ini"
    path.write_text(text + "\n[checks.positivity]\nbounds = corollary1\n"
                           f"alpha = {alpha}\n")
    return ["simulate", str(path), "--out-dir", str(tmp_path)]


def _check_argv(tmp_path, check, options):
    """simulate with `check` on and `options` in its [checks.<check>]."""
    return _simulate_argv(tmp_path, extra=f"[checks]\n{check} = on\n\n"
                                          f"[checks.{check}]\n{options}\n")


def _shipped_argv(tmp_path, **values):
    """simulate on the shipped scenario with the given keys' values
    replaced, as sed rewrites it."""
    text = SHIPPED.read_text()
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert n == 1, key
    path = tmp_path / "shipped.ini"
    path.write_text(text)
    return ["simulate", str(path), "--out-dir", str(tmp_path)]


# name -> (argv builder, fragment the one-line message must contain)
MALFORMED_INPUTS = {
    "scenario t_end = inf": (lambda d: _simulate_argv(
        d, integrator="[integrator]\nt_end = inf\ndt = 0.01\n"),
        "t_end must be finite"),
    "simulate --t-end inf": (lambda d: _simulate_argv(d, "--t-end", "inf"),
                             "t_end must be finite"),
    "simulate --dt nan": (lambda d: _simulate_argv(d, "--dt", "nan"),
                          "dt must be finite"),
    "zerodyn --t-end inf": (lambda d: _zerodyn_argv(d, "--t-end", "inf"),
                            "t_end must be finite"),
    "scenario t_end = 1e300, dt = 1e-10": (lambda d: _simulate_argv(
        d, integrator="[integrator]\nt_end = 1e300\ndt = 1e-10\n"),
        "above the step bound MAX_STEPS = 100000000"),
    "zerodyn --t-end 1e300 --dt 1e-10": (lambda d: _zerodyn_argv(
        d, "--t-end", "1e300", "--dt", "1e-10"),
        "above the step bound MAX_STEPS = 100000000"),
    "zerodyn --mu 1e9 --t-end 1 (stiff)": (lambda d: _zerodyn_argv(
        d, "--mu", "1e9", "--t-end", "1"),
        "stiff problem beyond the step bound MAX_STEPS = 100000000"),
    # the Dormand-Prince pair's first step overflows: refused where the
    # kernel sees it, before `zerodyn` reads a row
    "zerodyn from 1e308 (non-finite state)": (lambda d: [
        "zerodyn", "--z2", "1e308", "--z3", "1e308", "--z4", "1e308",
        "--t-end", "10", "--out-dir", str(d)],
        "non-finite state at t = 0.01 (sample index 1)"),
    "off-grid scenario dt": (lambda d: _simulate_argv(
        d, integrator="[integrator]\nt_end = 1200\ndt = 5000\n"),
        "does not divide"),
    "off-grid zerodyn dt": (lambda d: _zerodyn_argv(d, "--dt", "300"),
                            "does not divide"),
    "fractional sampling_stride": (lambda d: _simulate_argv(
        d, integrator=INTEGRATOR_BLOCK.replace("= 100", "= 2.7")),
        "'2.7' is not an integer"),
    "infinite sampling_stride": (lambda d: _simulate_argv(
        d, integrator=INTEGRATOR_BLOCK.replace("= 100", "= inf")),
        "'sampling_stride' in [integrator]: 'inf' is not finite"),
    "nan initial S": (lambda d: _simulate_argv(
        d, initial=INITIAL_BLOCK.replace("S = 700", "S = nan")),
        "key 's' in [initial]: 'nan' is not finite"),
    "infinite initial R": (lambda d: _simulate_argv(
        d, initial=INITIAL_BLOCK.replace("R = 0", "R = -inf")),
        "key 'r' in [initial]: '-inf' is not finite"),
    "unknown key in [params]": (lambda d: _simulate_argv(
        d, params=P1_BLOCK + "betta = 0.1\n"),
        "unknown key 'betta' in [params]"),
    "unknown key in [initial]": (lambda d: _simulate_argv(
        d, initial=INITIAL_BLOCK + "V = 0\n"),
        "unknown key 'v' in [initial]"),
    "unknown key in [integrator]": (lambda d: _simulate_argv(
        d, integrator=INTEGRATOR_BLOCK + "sampling_strid = 10\n"),
        "unknown key 'sampling_strid' in [integrator]"),
    "unknown section [output]": (lambda d: _simulate_argv(
        d, extra="[output]\ncsv = t.csv\n"),
        "unknown section [output]"),
    "unknown section [checks.positivty]": (lambda d: _simulate_argv(
        d, extra="[checks]\npositivity = on\n\n[checks.positivty]\n"
                 "v_lo = 0\n"),
        "unknown section [checks.positivty]"),
    "unknown check option rel_tl": (lambda d: _simulate_argv(
        d, extra="[checks]\nasymptotics = on\n\n[checks.asymptotics]\n"
                 "rel_tl = 1e-12\n"),
        "unknown option 'rel_tl' in [checks.asymptotics]"),
    "bounds = banana": (lambda d: _simulate_argv(
        d, extra="[checks]\npositivity = on\n\n[checks.positivity]\n"
                 "bounds = banana\n"),
        "key 'bounds' in [checks.positivity]: 'banana' is not one of: "
        "corollary1"),
    "v_hi with bounds = corollary1": (lambda d: _simulate_argv(
        d, extra="[checks]\npositivity = on\n\n[checks.positivity]\n"
                 "bounds = corollary1\nv_hi = 0.5\n"),
        "option 'v_hi' in [checks.positivity] has no effect with "
        "bounds = corollary1"),
    "positivity options with the check off": (lambda d: _simulate_argv(
        d, extra="[checks.positivity]\nv_hi = 0.5\n"),
        "section [checks.positivity] has no effect: check 'positivity' is "
        "not on in [checks]"),
    "alpha without bounds": (lambda d: _simulate_argv(
        d, extra="[checks]\npositivity = on\n\n[checks.positivity]\n"
                 "alpha = 0.9\n"),
        "option 'alpha' in [checks.positivity] has no effect without "
        "bounds = corollary1"),
    "corollary1 bounds at mu = 0": (lambda d: _simulate_argv(
        d, params=P1_BLOCK.replace("mu = 0.01", "mu = 0"),
        law="[law]\nname = zero\n",
        integrator="[integrator]\nt_end = 5\ndt = 0.01\n",
        extra="[checks]\npositivity = on\n\n[checks.positivity]\n"
              "bounds = corollary1\n"),
        "corollary1 bound needs mu*N > 0"),
    "integral_limit under susceptible_linear": (lambda d: _simulate_argv(
        d, law="[law]\nname = susceptible_linear\ng = 0.1\n",
        integrator="[integrator]\nt_end = 5\ndt = 0.01\n",
        extra="[checks]\nintegral_limit = on\n"),
        "integral_limit check needs an immune-feedback family law "
        "(got susceptible_linear)"),
    "nan gain g1": (lambda d: _simulate_argv(
        d, law=LAW_BLOCK.replace("g1 = 0.03", "g1 = nan")),
        "key 'g1' in [law]: 'nan' is not finite"),
    "infinite constant value": (lambda d: _simulate_argv(
        d, law="[law]\nname = constant\nvalue = inf\n"),
        "key 'value' in [law]: 'inf' is not finite"),
    "adaptive tolerance 1e-300": (lambda d: _simulate_argv(
        d, integrator="[integrator]\nt_end = 50\ndt = 0.01\nadaptive = on\n"
                      "rel_tol = 1e-300\nabs_tol = 1e-300\n"),
        "rel_tol = 1e-300 and abs_tol = 1e-300 cannot be met"),
    "clip_lo above clip_hi": (lambda d: _simulate_argv(
        d, law=LAW_BLOCK + "clip_lo = 0.9\nclip_hi = 0.1\n"),
        "Saturated requires lo <= hi"),
    "conservation = maybe": (lambda d: _simulate_argv(
        d, extra="[checks]\nconservation = maybe\n"),
        "key 'conservation' in [checks]: 'maybe' is not a boolean"),
    "[params] without beta": (lambda d: _simulate_argv(
        d, params=P1_BLOCK.replace("beta = 0.9\n", "")),
        "missing key 'beta' in [params]"),
    "[law] without name": (lambda d: _simulate_argv(
        d, law=LAW_BLOCK.replace("name = immune_feedback\n", "")),
        "missing key 'name' in [law]"),
    "adaptive rel_tol = 0": (lambda d: _simulate_argv(
        d, integrator=INTEGRATOR_BLOCK + "adaptive = on\nrel_tol = 0\n"),
        "adaptive mode needs rel_tol > 0 and abs_tol > 0"),
    # check options with which no run gets a verdict, refused at load
    **{f"[checks.{check}] rel_tol = {value}": (
        lambda d, check=check, value=value: _check_argv(
            d, check, f"rel_tol = {value}"),
        f"option 'rel_tol' in [checks.{check}]: {float(value)!r} is not "
        "finite and > 0")
       for check in ("asymptotics", "integral_limit")
       for value in ("inf", "nan", "0", "-1")},
    **{f"[checks.asymptotics] tail_fraction = {value}": (
        lambda d, value=value: _check_argv(
            d, "asymptotics", f"tail_fraction = {value}"),
        f"option 'tail_fraction' in [checks.asymptotics]: {float(value)!r} "
        "is not in (0, 1)")
       for value in ("0", "1", "nan")},
    **{f"[checks.positivity] {options}".replace("\n", ", "): (
        lambda d, options=options: _check_argv(d, "positivity", options),
        fragment)
       for options, fragment in (
           ("v_lo = nan", "option 'v_lo' in [checks.positivity]: nan is not "
                          "a number"),
           ("v_hi = nan", "option 'v_hi' in [checks.positivity]: nan is not "
                          "a number"),
           ("bounds = corollary1\nalpha = nan",
            "option 'alpha' in [checks.positivity]: nan is not a number"),
           ("v_lo = 2\nv_hi = 1", "options in [checks.positivity]: v_lo = "
                                  "2.0 is above v_hi = 1.0"),
           # against the check's own defaults, v_lo = 0 and v_hi = 1
           ("v_lo = 2", "options in [checks.positivity]: v_lo = 2.0 is above "
                        "v_hi = 1.0"),
           ("v_hi = -1", "options in [checks.positivity]: v_lo = 0.0 is "
                         "above v_hi = -1.0"))},
    # an overflowed Corollary 1 bound is refused, not judged: at load
    # for an infinite alpha, at check time where the bound overflows
    "shipped scenario, corollary1 bounds, alpha = inf": (
        lambda d: _shipped_corollary1_argv(d, "inf"),
        "option 'alpha' in [checks.positivity]: inf is not finite"),
    "shipped scenario, corollary1 bounds, alpha = 1e307": (
        lambda d: _shipped_corollary1_argv(d, "1e307"),
        "corollary1 bound 1 + (alpha - beta*I/N)*S/(mu*N) overflows double "
        "precision at alpha = 1e+307"),
    # a check-time refusal: mu*(mu+omega+g) underflows in the integral
    # limit of the shipped law's prediction
    "shipped scenario at mu = 1e-300, omega = g1 = 1e-30": (
        lambda d: _shipped_argv(d, mu="1e-300", omega="1e-30", g1="1e-30",
                                t_end="1"),
        "prediction refused: mu*(mu+omega+g) underflows double precision"),
    # a gain clipped away still counts in the identity suite's rate scale
    "identities under a clipped constant 1e300": (lambda d: _simulate_argv(
        d, law="[law]\nname = constant\nvalue = 1e300\nclip_lo = 0\nclip_hi = 1\n",
        integrator="[integrator]\nt_end = 1\n",
        extra="[checks]\nidentities = on\n"),
        "identity suite tolerance 1e-3*N*(3*rates)^3*dt^2 overflows double "
        "precision at rates = 1e+300"),
    # refused by the check, after the run
    "identities with adaptive = on": (lambda d: _simulate_argv(
        d, integrator="[integrator]\nt_end = 50\ndt = 0.01\nadaptive = on\n",
        extra="[checks]\nidentities = on\n"),
        "identity suite requires a fixed-step run: its tolerance bounds "
        "central-difference truncation, not the adaptive pair's error"),
    "identities with a stride that does not divide the steps": (
        lambda d: _simulate_argv(
            d, integrator="[integrator]\nt_end = 400\ndt = 0.01\nsampling_stride = 3\n",
            extra="[checks]\nidentities = on\n"),
        "identity suite requires uniform sampling: sampling_stride 3 does not "
        "divide the 40000 steps, so the last interval spans 1 of the stride's "
        "3 steps (0.01 against 0.03)"),
    "identities with adaptive = dense = on": (lambda d: _simulate_argv(
        d, integrator=DENSE_BLOCK, extra="[checks]\nidentities = on\n"),
        "identity suite requires a fixed-step run"),
    "dense without adaptive": (lambda d: _simulate_argv(
        d, integrator=INTEGRATOR_BLOCK + "dense = on\n"),
        "dense output needs adaptive = on"),
    "off-grid dense dt": (lambda d: _simulate_argv(
        d, integrator=DENSE_BLOCK.replace("dt = 0.01", "dt = 5000")),
        "does not divide"),
    "simulate --dt off the shipped dense grid": (lambda d: [
        "simulate", str(SHIPPED), "--out-dir", str(d), "--dt", "0.7"],
        "dt = 0.7 does not divide t_end - t0 = 1200.0"),
    "dense grid over the step bound": (lambda d: _simulate_argv(
        d, integrator=DENSE_BLOCK.replace("t_end = 400", "t_end = 1e300")
        .replace("dt = 0.01", "dt = 1e-10")),
        "above the step bound MAX_STEPS = 100000000"),
    "equilibria --mu 1e200": (lambda d: ["equilibria", "--mu", "1e200"],
                              "(mu+sigma)^2 overflows double precision"),
    "equilibria --sigma 1e200 --gamma 1e200": (
        lambda d: ["equilibria", "--sigma", "1e200", "--gamma", "1e200"],
        "(mu+sigma)^2 overflows double precision"),
    "equilibria --sigma 1e308 --gamma 1e308 --beta 1e200": (
        lambda d: ["equilibria", "--sigma", "1e308", "--gamma", "1e308",
                   "--beta", "1e200"],
        "infection modes overflow double precision at mu = 0.01, "
        "sigma = 1e+308, gamma = 1e+308, beta = 1e+200"),
    "equilibria --omega 1e308": (lambda d: ["equilibria", "--omega", "1e308"],
                                 "(mu+omega)^2 overflows double precision"),
    "equilibria --N 1e308 --beta 100": (
        lambda d: ["equilibria", "--N", "1e308", "--beta", "100"],
        "equilibrium residual inf for endemic: the vector field overflows"),
    # beta/N overflows: a NaN residual, named as such, and at a smaller N
    # a residual gate that underflows to 0
    "equilibria --N 1e-310": (lambda d: ["equilibria", "--N", "1e-310"],
                              "equilibrium residual nan for disease_free: "
                              "the vector field overflows double precision"),
    "equilibria --N 1e-320": (lambda d: ["equilibria", "--N", "1e-320"],
                              "equilibrium residual gate underflows double "
                              "precision"),
    # usage errors, which argparse alone reports with exit 2
    "equilibria --beta abc": (lambda d: ["equilibria", "--beta", "abc"],
                              "argument --beta: invalid float value: 'abc'"),
    "zerodyn --z2 1": (lambda d: ["zerodyn", "--z2", "1"],
                       "the following arguments are required: --z3, --z4"),
    "unknown subcommand": (lambda d: ["frobnicate"],
                           "argument command: invalid choice: 'frobnicate'"),
    "no subcommand": (lambda d: [],
                      "the following arguments are required: command"),
    "equilibria --bogus 1": (lambda d: ["equilibria", "--bogus", "1"],
                             "unrecognized arguments: --bogus 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_one_with_one_line(case, tmp_path, capsys):
    argv, fragment = MALFORMED_INPUTS[case]
    code = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert fragment in err


# Runs whose chart's axis range double precision could not hold: a whole
# population near the largest double, whose padded y range overflowed
# (an OverflowError with a traceback), and a flat V of 1e17, which adding
# 1.0 did not widen (a math domain error, exit 1, after the CSV). Each
# keeps its chart and ends by its own verdict: exit 0, and exit 2 for the
# conservation check that the second run fails.
EXTREME_CHART = "\n".join((
    "[params]\nN = 1.65e308\nmu = 0.01\nomega = 0.02\nbeta = 0.9\n"
    "sigma = 0.2\ngamma = 0.2\n",
    "[initial]\nS = 1.65e308\nE = 0\nI = 0\nR = 0\n",
    "[law]\nname = zero\n", "[integrator]\nt_end = 10\ndt = 0.1\n",
    "[checks]\nconservation = on\n", "[outputs]\nsvg = fuzz.svg\n"))
FLAT_V_CHART = "\n".join((
    P1_BLOCK, "[initial]\nS = 1000\nE = 0\nI = 0\nR = 0\n",
    "[law]\nname = constant\nvalue = 1e17\n", "[integrator]\nt_end = 1\n",
    "[checks]\nconservation = on\n",
    "[outputs]\ncsv = fuzz.csv\nsvg = fuzz.svg\nreport = fuzz.txt\n"))


@pytest.mark.parametrize("text, code", [(EXTREME_CHART, 0), (FLAT_V_CHART, 2)],
                         ids=["population 1.65e308", "flat V 1e17"])
def test_chart_of_an_extreme_run_is_drawn(tmp_path, capsys, text, code):
    path = tmp_path / "chart.ini"
    path.write_text(text)
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert err == "" and out.rstrip().endswith("PASS" if code == 0 else "FAIL")
    svg = (tmp_path / "fuzz.svg").read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert not re.search(r"\b(inf|nan)\b", svg)
    # every tick label is a finite number, and no axis repeats a label
    axes = [re.findall(rf'text-anchor="{anchor}" font-family="sans-serif" '
                       r'font-size="11"[^>]*>([^<]*)<', svg)
            for anchor in ("middle", "end", "start")]
    for labels in axes:
        assert labels and all(map(math.isfinite, map(float, labels)))
        assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("argv", [["--version"], ["--help"],
                                  ["equilibria", "--help"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# -- the process entry, run: each test starts fresh processes ---------------

CLI = ("-m", "seirvax.cli")


def test_process_exits_zero_one_and_two(tmp_path, fresh_python):
    # the shipped run, a malformed input and a verify on a tampered CSV
    done = fresh_python(*CLI, "simulate", str(SHIPPED), "--out-dir",
                        str(tmp_path), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("overall: PASS\n")
    argv, fragment = MALFORMED_INPUTS["equilibria --beta abc"]
    done = fresh_python(*CLI, *argv(tmp_path), capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert fragment in done.stderr
    csv_path = tmp_path / "full_immunization.csv"
    lines = csv_path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[4] = repr(float(parts[4]) + 1.0)   # R column
    lines[3] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    done = fresh_python(*CLI, "verify", str(csv_path), str(SHIPPED),
                        capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (2, "")
    assert "FAIL  conservation" in done.stdout


# The shipped run with the corollary-1 range of V checked at an alpha
# below beta*I/N, outside Corollary 1's hypothesis: the check refuses the
# run, with one `error:` line and no outputs, also where warnings are errors.
SMALL_ALPHA = SHIPPED.read_text().replace(
    "integral_limit = on\n", "integral_limit = on\npositivity = on\n\n"
    "[checks.positivity]\nbounds = corollary1\nalpha = 0.0001\n")
SMALL_ALPHA_REFUSAL = ("error: corollary1 bound needs alpha >= beta*I/N: "
                       "alpha = 0.0001 is below the largest beta*I/N = ")


def _small_alpha_scenario(tmp_path) -> str:
    path = tmp_path / "small_alpha.ini"
    path.write_text(SMALL_ALPHA)
    return str(path)


def test_process_refuses_an_alpha_below_the_incidence(tmp_path, fresh_python):
    scenario = _small_alpha_scenario(tmp_path)
    for flags in ((), ("-W", "error")):
        done = fresh_python(*flags, *CLI, "simulate", scenario, "--out-dir",
                            str(tmp_path / "out"), capture_output=True,
                            text=True)
        assert (done.returncode, done.stdout) == (1, ""), flags
        assert done.stderr.startswith(SMALL_ALPHA_REFUSAL), flags
        assert done.stderr.count("\n") == 1, flags
        assert not (tmp_path / "out").exists(), flags


def test_main_refuses_an_alpha_below_the_incidence_where_warnings_are_errors(
        tmp_path, capsys):
    argv = ["simulate", _small_alpha_scenario(tmp_path), "--out-dir",
            str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(SMALL_ALPHA_REFUSAL)
    assert not (tmp_path / "out").exists()


def test_process_version_exits_zero(fresh_python):
    done = fresh_python(*CLI, "--version", capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"{__version__}\n", "")


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "PYTHONUNBUFFERED=1"])
def test_closed_stdout_pipe_exits_one_with_one_line(unbuffered, fresh_python):
    # The reader is gone before the process writes. Buffered, the write
    # fails only in the interpreter's flush at exit, which once printed
    # two lines and exited 120.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = fresh_python(*CLI, "equilibria", "--beta", "0.25",
                            stdout=write_end, stderr=subprocess.PIPE,
                            text=True, env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        assert main(["equilibria", "--beta", "0.25"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


def test_run_leaves_the_collector_off_and_its_objects_frozen(fresh_python):
    probe = ("import contextlib, gc, io\n"
             "from seirvax.cli import run\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = run(['equilibria', '--beta', '0.25'])\n"
             "print(code, gc.isenabled(), gc.get_freeze_count())\n")
    done = fresh_python("-c", probe, capture_output=True, text=True)
    code, enabled, frozen = done.stdout.split()
    assert (code, enabled, done.stderr) == ("0", "False", "")
    assert int(frozen) > 0


# -- the names perfbench/layers.py wraps on seirvax.cli --------------------

# Each wrapped name, by the module that defines it.
WRAPPED = {
    "load_scenario": "scenario", "integrate": "integrator",
    "run_checks": "cli", "write_trajectory_csv": "cli",
    "read_trajectory_csv": "cli", "write_line_chart": "svgplot",
    "analyze": "equilibria", "endemic_equilibrium": "equilibria",
    "integrate_zero_dynamics": "normal_form",
    "monitor_conservation": "checks", "monitor_positivity": "checks",
    "check_identity_suite": "checks", "check_asymptotics": "checks",
    "check_integral_limit": "checks",
}
_CHECK_FUNCTIONS = ("run_checks", "monitor_conservation", "monitor_positivity",
                    "check_identity_suite", "check_asymptotics",
                    "check_integral_limit")
# The wrapped names each command calls.
COMMAND_CALLS = {
    "simulate": ("load_scenario", "integrate", "write_trajectory_csv",
                 "write_line_chart", *_CHECK_FUNCTIONS),
    "equilibria": ("analyze",),
    "zerodyn": ("integrate_zero_dynamics",),
    "verify": ("load_scenario", "read_trajectory_csv", *_CHECK_FUNCTIONS),
}


@pytest.mark.parametrize("name", list(WRAPPED))
def test_wrapped_name_resolves_to_the_library_function(name):
    module = importlib.import_module(f"seirvax.{WRAPPED[name]}")
    assert getattr(cli, name) is getattr(module, name)


def _recorder(calls: list, name: str, original):
    def record(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    return record


@pytest.mark.parametrize("command", list(COMMAND_CALLS))
def test_commands_call_what_is_bound_on_the_module(command, tmp_path,
                                                   monkeypatch, capsys):
    """A replacement set on seirvax.cli, as a tracing wrapper is, is what
    the command calls, also after an earlier run bound the names."""
    scenario = write_scenario(tmp_path / "s.ini", **dict(
        ALL_CHECKS_SCENARIO, extra=ALL_CHECKS_SCENARIO["extra"]
        + "\n[outputs]\ncsv = t.csv\nsvg = t.svg\n"))
    argv = {"simulate": ["simulate", scenario, "--out-dir", str(tmp_path)],
            "equilibria": ["equilibria", "--beta", "0.25"],
            "zerodyn": _zerodyn_argv(tmp_path, "--t-end", "10"),
            "verify": ["verify", str(tmp_path / "t.csv"), scenario]}
    assert main(argv["simulate"]) == 0
    calls: list[str] = []
    for name in COMMAND_CALLS[command]:
        monkeypatch.setattr(cli, name,
                            _recorder(calls, name, getattr(cli, name)))
    assert main(argv[command]) == 0, capsys.readouterr().err
    assert sorted(set(calls)) == sorted(COMMAND_CALLS[command])


# -- fuzzing the numeric flags of equilibria and zerodyn -------------------

_PARAM_FLAGS = ("N", "mu", "omega", "beta", "sigma", "gamma")
# Any float a flag can hold: magnitudes from 1e-320 to 1e308 on a log
# scale, either sign, and 0, the infinities and NaN.
_ANY_FLOAT = st.one_of(
    st.builds(lambda sign, exp: sign * 10.0 ** exp, st.sampled_from((1.0, -1.0)),
              st.floats(min_value=-320.0, max_value=308.0)),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan)))
_PARAMS = st.fixed_dictionaries({}, optional=dict.fromkeys(_PARAM_FLAGS, _ANY_FLOAT))
_ZERODYN = st.fixed_dictionaries(
    {"z2": _ANY_FLOAT, "z3": _ANY_FLOAT, "z4": _ANY_FLOAT},
    optional={"t-end": _ANY_FLOAT.filter(lambda v: not v > 1.0),
              "dt": _ANY_FLOAT, "stride": st.integers(-2, 10)})


def _flags(values: dict) -> list[str]:
    # --flag=value, so that argparse reads '-1e-05' as a value, not a flag
    return [f"--{name}={value!r}" for name, value in values.items()]


def _run_in_process(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@seed(20111103)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(("equilibria", "zerodyn")), params=_PARAMS,
       same_gamma=st.booleans(), zerodyn=_ZERODYN, json_out=st.booleans())
@example(command="equilibria", params={"mu": 1e200}, same_gamma=False,
         zerodyn={}, json_out=False)
@example(command="equilibria", params={"sigma": 1e200}, same_gamma=True,
         zerodyn={}, json_out=False)
@example(command="equilibria", params={"omega": 1e308}, same_gamma=False,
         zerodyn={}, json_out=False)
@example(command="equilibria", params={"N": 1e308, "beta": 100.0},
         same_gamma=False, zerodyn={}, json_out=False)
@example(command="zerodyn", params={}, same_gamma=False,
         zerodyn={"z2": 300.0, "z3": 400.0, "z4": 300.0, "t-end": 1.0,
                  "dt": 1e-300}, json_out=False)
def test_numeric_flags_never_escape(tmp_path, command, params, same_gamma,
                                    zerodyn, json_out):
    """Any float in any numeric flag ends in exit 0, 1 or 2; exit 1
    carries exactly one stderr line, the `error:` message. A `zerodyn`
    grid of more than MAX_STEPS steps exits 1."""
    if same_gamma and "sigma" in params:
        params = {**params, "gamma": params["sigma"]}
    argv = [command, *_flags(params)]
    over_bound = False
    if command == "equilibria":
        if json_out:
            argv += ["--json", str(tmp_path / "eq.json")]
    else:
        span, dt = zerodyn.get("t-end", 1000.0), zerodyn.get("dt", 1e-2)
        if span > 1.0:
            zerodyn = {**zerodyn, "t-end": 1.0}
            span = 1.0
        # A grid over the step bound must be refused. One within it runs
        # on the dense pair, whose run time follows the grid's dense
        # samples and CSV rows, so a draw of more than 10^4 grid steps gets
        # 10^4 to keep the fuzz fast.
        steps = span / dt if 0.0 < span and 0.0 < dt else 0.0
        over_bound = steps > MAX_STEPS
        if 1e4 < steps <= MAX_STEPS:
            zerodyn = {**zerodyn, "dt": span * 1e-4}
        argv += [*_flags(zerodyn), "--out-dir", str(tmp_path)]
    code, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    assert code == 1 or not over_bound, err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# -- fuzzing scenario files built from the loader's grammar ----------------

# A valid value for every key the loader reads from [params], [initial]
# and [integrator] (the fields of ModelParams, SeirState and
# IntegratorConfig), except the horizon, which stays t0 = 0, t_end = 1.
_BASE_KEYS = {
    "params": {"n": "1000", "mu": "0.01", "omega": "0.02", "beta": "0.9",
               "sigma": "0.2", "gamma": "0.2"},
    "initial": {"s": "700", "e": "200", "i": "100", "r": "0"},
    "integrator": {"dt": "0.01", "sampling_stride": "10", "adaptive": "off",
                   "rel_tol": "1e-8", "abs_tol": "1e-10", "dense": "off"},
}
_HORIZON = {"t0": "0", "t_end": "1"}
# The values a drawn key takes; a bool key may also be on or off, and a
# key that lists its accepted strings may take one of them.
_FUZZ_VALUES = ("0", "-1", "1e-300", "1e300", "inf", "-inf", "nan", "abc", "")


def _fuzz_values(kind) -> st.SearchStrategy[str]:
    if kind is bool:
        return st.sampled_from(_FUZZ_VALUES + ("on", "off"))
    return st.sampled_from(_FUZZ_VALUES + (kind if isinstance(kind, tuple) else ()))


@st.composite
def _scenario_texts(draw) -> str:
    """A scenario with a drawn law, integrator mode (fixed, adaptive or
    dense) and checks switched on or off, all three outputs, and up to
    four keys of its grammar (a check's switch and options among them)
    set to drawn values."""
    name = draw(st.sampled_from(sorted(SCENARIO_LAWS)))
    law = {"name": name, **{f.name: "0.03" for f in fields(SCENARIO_LAWS[name])}}
    sections = {**{s: dict(keys) for s, keys in _BASE_KEYS.items()}, "law": law}
    sections["integrator"].update(_HORIZON, **draw(st.sampled_from(
        ({}, {"adaptive": "on"}, {"adaptive": "on", "dense": "on"}))))
    sections["checks"] = draw(st.dictionaries(
        st.sampled_from(sorted(CHECK_NAMES)), st.sampled_from(("on", "off")),
        max_size=5))
    # every writer runs; a fixed section, so it changes no draw
    sections["outputs"] = {"csv": "fuzz.csv", "svg": "fuzz.svg", "report": "fuzz.txt"}
    drawable = [(s, key, float) for s, keys in _BASE_KEYS.items() for key in keys]
    drawable += [("law", key, float) for key in (*list(law)[1:], *_CLIP_KEYS)]
    drawable += [("checks", check, bool) for check in CHECK_NAMES]
    drawable += [(f"checks.{check}", key, kind)
                 for check, options in CHECK_NAMES.items()
                 for key, kind in options.items()]
    keys = draw(st.lists(st.sampled_from(drawable), max_size=4,
                         unique_by=lambda k: k[:2]))
    for section, key, kind in keys:
        sections.setdefault(section, {})[key] = draw(_fuzz_values(kind))
    return "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for section, keys in sections.items())


def test_fuzz_grammar_is_the_loaders():
    for section, (cls, _) in _TYPED_SECTIONS.items():
        want = {f.name.lower() for f in fields(cls)}
        extra = _HORIZON if section == "integrator" else {}
        assert {*_BASE_KEYS[section], *extra} == want, section
    # The fuzz draws check options from the checks' own table, whose
    # options are the keyword arguments of each check function.
    for check, function in (("positivity", monitor_positivity),
                            ("asymptotics", check_asymptotics),
                            ("integral_limit", check_integral_limit)):
        keywords = [name for name, param in
                    inspect.signature(function).parameters.items()
                    if param.default is not inspect.Parameter.empty]
        assert [*CHECK_NAMES[check]] == keywords, check


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_scenario_texts())
# the identity suite's rate scale overflowed here, with a traceback
@example(text="\n".join((
    P1_BLOCK, INITIAL_BLOCK,
    "[law]\nname = constant\nvalue = 1e300\nclip_lo = 0\nclip_hi = 1\n",
    "[integrator]\nt_end = 1\n", "[checks]\nidentities = on\n")))
# the chart's padded range overflowed here, with a traceback
@example(text=EXTREME_CHART)
# refused by a check after the run: Corollary 1's bound below beta*I/N (a
# library warning once, and a traceback where warnings were errors), and
# the identity suite on an adaptive record
@example(text=SMALL_ALPHA)
@example(text="\n".join((P1_BLOCK, INITIAL_BLOCK, LAW_BLOCK, DENSE_BLOCK,
                         "[checks]\nidentities = on\n")))
def test_scenario_files_never_escape(tmp_path, text):
    """Any drawn scenario ends in exit 0, 1 or 2; exit 1 carries exactly
    one stderr line, the `error:` message."""
    path = tmp_path / "fuzz.ini"
    path.write_text(text)
    code, err = _run_in_process(["simulate", str(path), "--out-dir", str(tmp_path)])
    assert code in (0, 1, 2), text
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
