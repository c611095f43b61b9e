"""Bitwise golden outputs of the integrators.

Each case integrates a fixed input and hashes the raw little-endian
float64 bytes of every sample column (plus the projection log where the
run projects). The digests pin the exact arithmetic of the steppers and
vector fields: a refactor that reorders one floating-point operation
changes them. Regenerate a digest only for a deliberate change of the
numbers, and say so in the change log.

    PYTHONPATH=src python tests/test_golden.py   # print current digests
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from seirvax import (
    ConstantVax,
    ImmuneFeedback,
    IntegratorConfig,
    ModelParams,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    integrate,
    integrate_normal,
    integrate_zero_dynamics,
    to_normal,
)
from seirvax.scenario import load_scenario

SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "full_immunization.ini"
P1 = ModelParams(N=1000.0, mu=0.01, omega=0.02, beta=0.9, sigma=0.2, gamma=0.2)
MIXED = SeirState(700.0, 100.0, 50.0, 150.0)
TRAJ_COLUMNS = ("t", "S", "E", "I", "R", "V", "u")


def _digest(obj, columns, extra: str = "") -> str:
    h = hashlib.sha256()
    for name in columns:
        col = np.ascontiguousarray(getattr(obj, name), dtype="<f8")
        h.update(name.encode())
        h.update(col.tobytes())
    h.update(extra.encode())
    return h.hexdigest()


def _traj_digest(traj) -> str:
    log = f"{traj.projected_count}|{traj.projected!r}"
    return _digest(traj, TRAJ_COLUMNS, log)


def _shipped():
    sc = load_scenario(SHIPPED)
    return _traj_digest(integrate(sc.initial, sc.params, sc.law, sc.config))


def _adaptive_immune_feedback():
    cfg = IntegratorConfig(t_end=10.0, dt=1e-2, adaptive=True, rel_tol=1e-6,
                           abs_tol=1e-8, sampling_stride=3)
    return _traj_digest(integrate(MIXED, P1, ImmuneFeedback(0.01, 0.05), cfg))


def _accuracy_adaptive(law, rel_tol):
    """The shipped scenario's plant on [0, 100] with default abs_tol and dt,
    as the benchmark's time-to-accuracy ladder runs the adaptive pair."""
    def case():
        sc = load_scenario(SHIPPED)
        cfg = IntegratorConfig(t_end=100.0, adaptive=True, rel_tol=rel_tol,
                               sampling_stride=1)
        return _traj_digest(integrate(sc.initial, sc.params, law, cfg))
    return case


def _fixed_project():
    cfg = IntegratorConfig(t_end=2.0, dt=1e-2, sampling_stride=3,
                           positivity_policy="project")
    traj = integrate(SeirState(1000.0, 0.0, 0.0, 0.0), P1, ConstantVax(-5.0), cfg)
    assert traj.projected_count > 0
    return _traj_digest(traj)


def _adaptive_project():
    cfg = IntegratorConfig(t_end=2.0, dt=1e-2, adaptive=True, rel_tol=1e-8,
                           abs_tol=1e-8, positivity_policy="project")
    traj = integrate(SeirState(1000.0, 0.0, 0.0, 0.0), P1, ConstantVax(-5.0), cfg)
    assert traj.projected_count > 0
    return _traj_digest(traj)


def _saturated_fixed():
    cfg = IntegratorConfig(t_end=20.0, dt=1e-2, sampling_stride=7)
    law = Saturated(SusceptibleLinear(0.05), 0.0, 1.0)
    return _traj_digest(integrate(MIXED, P1, law, cfg))


def _normal():
    cfg = IntegratorConfig(t_end=50.0, dt=1e-2, sampling_stride=7)
    traj = integrate_normal(to_normal(MIXED), P1, ImmuneFeedback(0.0, 0.03), cfg)
    return _digest(traj, ("t", "z1", "z2", "z3", "z4", "V"))


def _zero_dynamics():
    cfg = IntegratorConfig(t_end=100.0, dt=1e-2, sampling_stride=7)
    traj = integrate_zero_dynamics((300.0, 400.0, 300.0), P1, cfg)
    return _digest(traj, ("t", "z2", "z3", "z4"))


CASES = {
    "shipped_scenario": _shipped,
    "adaptive_immune_feedback": _adaptive_immune_feedback,
    "fixed_project": _fixed_project,
    "adaptive_project": _adaptive_project,
    "saturated_fixed": _saturated_fixed,
    "integrate_normal": _normal,
    "integrate_zero_dynamics": _zero_dynamics,
    "accuracy_immune_feedback":
        _accuracy_adaptive(ImmuneFeedback(0.0, 0.03), 1e-5),
    "accuracy_susceptible_linear":
        _accuracy_adaptive(SusceptibleLinear(0.05), 1e-6),
    "accuracy_susceptible_plus_exposed":
        _accuracy_adaptive(SusceptiblePlusExposed(0.005), 1e-6),
    "accuracy_zero": _accuracy_adaptive(ZeroVax(), 1e-3),
}

GOLDEN = {
    "shipped_scenario":
        "4722123ab20a68297f7a1481ea9c0cd40294eca54567ee25579da602f1fa29de",
    "adaptive_immune_feedback":
        "70a80fe7470a4cf3beb7155caddb010f28e41f35b52c2043b9468403146b7bae",
    "fixed_project":
        "b61572178dc73041331b9577e54a825d3d655a21533c91e69bf0cd607e288d1d",
    "adaptive_project":
        "58fd46029b6ef01be4de09ead9091a616cebd7ff675b410f8041fd642509eb46",
    "saturated_fixed":
        "8fe9b1a8ba77df68be023e766db5995c0a68defc633a33aac848b886a298817a",
    "integrate_normal":
        "6bf3bc584b195389c2963349ccbef06529377c5f5aba194be732259ae75ab8f9",
    "integrate_zero_dynamics":
        "2927fd7f74b65d0c208041b38755e0962a8453bbee4256fd388ef04e54c7a2c6",
    "accuracy_immune_feedback":
        "c67c67cc6ce0200d5101cd7173250d0e168a70a94957773039d60810f51b1333",
    "accuracy_susceptible_linear":
        "96bb8771e59232fdaa3a4c82ce479a6fd6546615e1312c3f3ff298179e3e80ed",
    "accuracy_susceptible_plus_exposed":
        "873b39e328c5df01078e968580eadbefc7a60de568f20890055d72fcc876e000",
    "accuracy_zero":
        "cc395565ac7e9caafcd0797b13734f9aa857981942834bb817b33d3b672d3409",
}


def test_golden_digests():
    got = {name: case() for name, case in CASES.items()}
    mismatched = {name: got[name] for name in CASES if got[name] != GOLDEN[name]}
    assert not mismatched, f"digests changed: {mismatched}"


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}":\n        "{case()}",')
