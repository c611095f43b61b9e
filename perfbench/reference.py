"""Accuracy ladder and continuous closed-loop references (run as a child).

    python3 perfbench/reference.py --root . --out DIR

For each law of the accuracy workload, solves the continuous closed loop
(V evaluated at every stage) with scipy's DOP853 at rtol 1e-13 and atol
1e-10, and self-checks it against a second solve at rtol 1e-12 and atol
1e-9: the two must agree within 1e-9*N. Then walks the fixed-step ladder
dt = 2^-k and the adaptive ladder rel_tol = 10^-k, comparing each run at
its own sample times through the reference's dense output. The accepted
rung is the coarsest one whose maximum deviation is at most 1e-3*N. The
fixed ladder measures one rung past the accepted one, and `order` is
log2 of the error ratio between those two finest rungs.

Writes DIR/ladder.json and DIR/refs.npz (sample times and reference
states of every accepted run, which the timed runs reproduce bitwise).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

FIXED_LADDER = [2.0 ** -k for k in range(0, 13)]
ADAPTIVE_LADDER = [10.0 ** -k for k in range(3, 10)]
REFERENCE_TOLS = ((1e-13, 1e-10), (1e-12, 1e-9))


def closed_loop_rhs(params, law_fn):
    """The SEIR vector field with V = law(state) at every evaluation."""
    mu, om, be, si, ga, N = (params.mu, params.omega, params.beta,
                             params.sigma, params.gamma, params.N)

    def rhs(t, y):
        S, E, I, R = y
        V = law_fn(S, E, I, R, t)
        infection = be * S * I / N
        return (-mu * S + om * R - infection + mu * N * (1.0 - V),
                infection - (mu + si) * E,
                -(mu + ga) * I + si * E,
                -(mu + om) * R + ga * I + mu * N * V)

    return rhs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))

    import numpy as np
    from scipy.integrate import solve_ivp

    from seirvax import integrate
    from seirvax.laws import compile_law
    from workloads import (ACCURACY_T_END, ACCURACY_TARGET_FRAC, accuracy_config,
                           accuracy_inputs)

    params, initial, laws = accuracy_inputs(args.root.resolve())
    target = ACCURACY_TARGET_FRAC * params.N
    y0 = initial.as_tuple()
    grid = np.linspace(0.0, ACCURACY_T_END, 2001)
    result: dict = {"target": target, "laws": {}}
    arrays: dict = {}

    for name, law in laws.items():
        rhs = closed_loop_rhs(params, compile_law(law, params))
        sols = []
        for rtol, atol in REFERENCE_TOLS:
            sol = solve_ivp(rhs, (0.0, ACCURACY_T_END), y0, method="DOP853",
                            rtol=rtol, atol=atol, dense_output=True)
            if not sol.success:
                raise RuntimeError(f"{name}: reference solve failed: {sol.message}")
            sols.append(sol.sol)
        ref = sols[0]
        entry = {"reference_agreement": float(np.max(np.abs(sols[0](grid) - sols[1](grid))))}

        for mode, ladder in (("fixed", FIXED_LADDER), ("adaptive", ADAPTIVE_LADDER)):
            rungs = []
            accepted = None
            for rung in ladder:
                t0 = time.perf_counter()
                try:
                    traj = integrate(initial, params, law, accuracy_config(mode, rung))
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    rungs.append({"rung": rung, "error": f"{type(exc).__name__}: {exc}"})
                    continue
                wall = time.perf_counter() - t0
                states = traj.states().T
                reference = ref(traj.t)
                err = float(np.max(np.abs(states - reference)))
                rungs.append({"rung": rung, "err": err, "steps": len(traj) - 1,
                              "wall_s": wall})
                if accepted is None and err <= target:
                    accepted = len(rungs) - 1
                    arrays[f"{name}.{mode}.t"] = traj.t
                    arrays[f"{name}.{mode}.ref"] = reference
                    if mode == "adaptive":
                        break
                elif accepted is not None:
                    break
            mode_entry = {"rungs": rungs, "accepted": None}
            if accepted is not None:
                acc = rungs[accepted]
                mode_entry.update(accepted=acc["rung"], err_at_tol=acc["err"],
                                  steps_to_tol=acc["steps"])
                if mode == "fixed" and accepted + 1 < len(rungs) \
                        and rungs[accepted + 1].get("err", 0.0) > 0.0:
                    mode_entry["order"] = math.log2(acc["err"] / rungs[accepted + 1]["err"])
            entry[mode] = mode_entry
        result["laws"][name] = entry

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "ladder.json").write_text(json.dumps(result, indent=1))
    np.savez(args.out / "refs.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
