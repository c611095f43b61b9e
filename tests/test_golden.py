"""Bitwise golden outputs of the integrators and the frequency sweep.

Each integrator case integrates a fixed input and hashes the raw
little-endian float64 bytes of every sample column. The sweep cases hash every endemic point's
`SweepResult` over a fixed parameter map, the map's `condition_holds`
verdicts alone, every `analyze` report's spectrum and verdicts over the
same map and over seeded draws off it, and the bytes of the `equilibria --json` report; the
last case hashes the bytes of the README's `zerodyn` CSV. A separate test
hashes the CSV, SVG and report that `simulate` writes for the shipped
scenario. The digests pin the exact arithmetic of the steppers, vector fields and
sweep: a refactor that reorders one floating-point operation changes
them. Regenerate a digest only for a deliberate change of the numbers,
and say so in the change log.

    PYTHONPATH=src python tests/test_golden.py   # print current digests
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np

from seirvax import (
    ImmuneFeedback,
    IntegratorConfig,
    ModelParams,
    Saturated,
    SeirState,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    analyze,
    endemic_equilibrium,
    hinf_ratio_sweep,
    integrate,
    integrate_normal,
    integrate_zero_dynamics,
    to_normal,
)
from conftest import map_params
from seirvax.cli import main
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
    # Every recorded digest hashed the suffix "0|()" after the columns.
    return _digest(traj, TRAJ_COLUMNS, "0|()")


def _shipped():
    """The shipped scenario on the fixed RK4 grid."""
    sc = load_scenario(SHIPPED)
    cfg = dataclasses.replace(sc.config, adaptive=False, dense=False)
    return _traj_digest(integrate(sc.initial, sc.params, sc.law, cfg))


def _shipped_dense():
    """The shipped scenario as it ships: adaptive with dense output."""
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


def _map_sweeps():
    """The `SweepResult` at every endemic point of the map."""
    results = []
    for p in map_params():
        endemic = endemic_equilibrium(p)
        if endemic is not None:
            results.append(hinf_ratio_sweep(p, endemic))
    assert len(results) == 513
    return results


def _sweep_map():
    """(max_ratio, argmax_freq, condition_holds) at every map point."""
    h = hashlib.sha256()
    for res in _map_sweeps():
        h.update(struct.pack("<dd?", res.max_ratio, res.argmax_freq,
                             res.condition_holds))
    return h.hexdigest()


def _sweep_verdicts():
    """The condition_holds bit alone at every map point: it must survive
    any change to how the peak is computed."""
    bits = bytes(res.condition_holds for res in _map_sweeps())
    return hashlib.sha256(bits).hexdigest()


def _map_reports():
    """Every `analyze` report over the map: its kind, the spectrum's bytes
    as complex128 with the spectrum's own dtype, `locally_stable` and the
    closed-form zeros."""
    h = hashlib.sha256()
    count = 0
    for p in map_params():
        for rep in analyze(p):
            count += 1
            zeros = rep.closed_form_zeros
            h.update(rep.point.kind.encode())
            h.update(np.ascontiguousarray(rep.spectrum, dtype="<c16").tobytes())
            h.update(rep.spectrum.dtype.char.encode())
            h.update(struct.pack("<?", rep.locally_stable))
            h.update(b"-" if zeros is None else struct.pack("<4d", *zeros))
    assert count == 648 + 513
    return h.hexdigest()


def _draw_params(count: int = 1500, seed: int = 20):
    """Seeded draws off the map: sigma = gamma log-uniform in [0.01, 2], mu
    log-uniform in [1e-4, 0.5], omega uniform in [0, 1] and beta
    log-uniform in [0.25, 50] times the threshold (mu+sigma)^2/sigma."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mu, sigma, factor = np.exp(rng.uniform(np.log([1e-4, 0.01, 0.25]),
                                               np.log([0.5, 2.0, 50.0])))
        omega = rng.uniform(0.0, 1.0)
        beta = factor * (mu + sigma) ** 2 / sigma
        yield ModelParams(N=1000.0, mu=float(mu), omega=float(omega),
                          beta=float(beta), sigma=float(sigma), gamma=float(sigma))


def _opt(fmt: str, value) -> bytes:
    return b"-" if value is None else struct.pack(fmt, value)


def _analyze_draws():
    """Every `analyze` report over the draws: the point's kind, state,
    residual and feasibility flag, the Jacobian's bytes, the spectrum's
    bytes and dtype, the closed-form zeros, `locally_stable` and the sweep
    fields, then each endemic draw's whole `SweepResult`."""
    h = hashlib.sha256()
    endemic = 0
    for p in _draw_params():
        for rep in analyze(p):
            pt = rep.point
            h.update(pt.kind.encode())
            h.update(struct.pack("<5d", *pt.state.as_tuple(), pt.residual))
            h.update(_opt("<?", pt.feasibility_a11))
            h.update(np.ascontiguousarray(rep.jacobian, dtype="<f8").tobytes())
            h.update(rep.spectrum.tobytes() + rep.spectrum.dtype.char.encode())
            h.update(b"-" if rep.closed_form_zeros is None
                     else struct.pack("<4d", *rep.closed_form_zeros))
            h.update(struct.pack("<?", rep.locally_stable))
            h.update(_opt("<d", rep.hinf_ratio) + _opt("<?", rep.hinf_condition_holds))
            if rep.hinf_ratio is not None:
                endemic += 1
                res = hinf_ratio_sweep(p, pt)
                h.update(struct.pack("<ddd?", res.max_ratio, res.argmax_freq,
                                     res.threshold, res.condition_holds))
    assert endemic >= 1000
    return h.hexdigest()


def _equilibria_json():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "eq.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["equilibria", "--beta", "0.25", "--json", str(path)]) == 0
        return hashlib.sha256(path.read_bytes()).hexdigest()


def _zerodyn_cli():
    """The bytes of the CSV the README's `zerodyn` command writes."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["zerodyn", "--z2", "300", "--z3", "400", "--z4", "300",
                         "--t-end", "1000", "--out-dir", tmp]) == 0
        return hashlib.sha256((Path(tmp) / "zerodyn.csv").read_bytes()).hexdigest()


CASES = {
    "shipped_scenario": _shipped,
    "shipped_dense": _shipped_dense,
    "adaptive_immune_feedback": _adaptive_immune_feedback,
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
    "sweep_map": _sweep_map,
    "sweep_verdicts": _sweep_verdicts,
    "map_reports": _map_reports,
    "analyze_draws": _analyze_draws,
    "equilibria_json": _equilibria_json,
    "zerodyn_cli": _zerodyn_cli,
}

GOLDEN = {
    "shipped_scenario":
        "023ae2a80228d9c5e59b3b06e2d11058f00e9655396b8c0144fc4087e7605d97",
    "shipped_dense":
        "39542bc6398946396429deae661e8da0906da6ed179c5dab7d4d508d079376bf",
    "adaptive_immune_feedback":
        "8722ad0035cc0aa6d41ce34b3c2e103b40aa7de9b43c6d30027caa972b9e499f",
    "saturated_fixed":
        "6123165ec44f5bcad8ed998039faebf9f678dec4ccdca404c9897acd40a8a7d8",
    "integrate_normal":
        "9f3c0cc9c05d694ba67879feb74748bd3f54e21b1abbc8fdd84b146938532bdc",
    "integrate_zero_dynamics":
        "2927fd7f74b65d0c208041b38755e0962a8453bbee4256fd388ef04e54c7a2c6",
    "accuracy_immune_feedback":
        "109d4460009106ea07869e1e09b65b732b4b78f6540ce18f2214ae3ddc4ca757",
    "accuracy_susceptible_linear":
        "da622ebc5aff6f62d2653a432ac95a421eef5a6ba3084f0b9ac07107d93fea6a",
    "accuracy_susceptible_plus_exposed":
        "e00f942b452d79bd8d45666fa269b827fb274a111a0c3031a3f217eb0a2e89ee",
    "accuracy_zero":
        "cc395565ac7e9caafcd0797b13734f9aa857981942834bb817b33d3b672d3409",
    "sweep_map":
        "c7275e63eb6f92b5d6b06b59abafbcbf53a8743d86e17e7bc361ebd446974797",
    "sweep_verdicts":
        "6fd7ed7693121972588e2c7797321cdd8cea38e15540c2d2bf9006c762f4cb05",
    "map_reports":
        "0f77a5011612b901aa72c15a350f0c6071c421e460cd27640d3b7c99d72f85f9",
    "analyze_draws":
        "d39a6a7212abe0aeb09c1c16fa42a94837ae6fa0b37871193db5c6b2aaadc7e6",
    "equilibria_json":
        "cb4f54023252fe98f215b702018773e4eb3fbad4f18220644861afb534c8c290",
    "zerodyn_cli":
        "5f2b30384025f708ef31fffda87812ecd58a533c07377acddbe34ace874c670b",
}


# The SHA-256 of each file `seirvax simulate scenarios/full_immunization.ini`
# writes: the bytes come from Python floats, whatever numpy formats.
SIMULATE_OUTPUTS = {
    "full_immunization.csv":
        "c3240acef75b3c44f15748cd94434b2743b7e84d706d2a1ccac8010c28d73181",
    "full_immunization.svg":
        "44d94e2ea89e835aeed558180ad2b336ac46b9de186046bcce812bd67ad25ca1",
    "full_immunization.txt":
        "7a9fe5734212d183680055d0c636c22826a5f5d52442485e10f43d96dfcc26f9",
}


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def _simulate_outputs() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", str(SHIPPED), "--out-dir", tmp]) == 0
        return _digests(Path(tmp))


def test_simulate_output_files():
    assert _simulate_outputs() == SIMULATE_OUTPUTS


def test_simulate_output_files_of_a_fresh_process(tmp_path, fresh_python):
    # through `python -m seirvax.cli`, the entry that runs without the
    # cyclic collector, as perfbench times it
    done = fresh_python("-m", "seirvax.cli", "simulate", str(SHIPPED),
                        "--out-dir", str(tmp_path), capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert _digests(tmp_path) == SIMULATE_OUTPUTS


def test_golden_digests():
    got = {name: case() for name, case in CASES.items()}
    mismatched = {name: got[name] for name in CASES if got[name] != GOLDEN[name]}
    assert not mismatched, f"digests changed: {mismatched}"


if __name__ == "__main__":
    for name, case in CASES.items():
        print(f'    "{name}":\n        "{case()}",')
    for name, digest in _simulate_outputs().items():
        print(f'    "{name}":\n        "{digest}",')
