"""The closed-loop Jacobian `kernels.jacobian` derives from the source text."""

from __future__ import annotations

import numpy as np
import pytest

from seirvax import (
    ConstantVax,
    ConstrainedImmuneFeedback,
    ImmuneFeedback,
    Linearizing,
    ModelParams,
    OutputZeroing,
    SusceptibleLinear,
    SusceptiblePlusExposed,
    ZeroVax,
    to_normal,
)
from conftest import closed_loop_jacobian, random_conserved_state
from seirvax.kernels import function, jacobian, law_function
from seirvax.laws import law_program
from seirvax.model import SEIR_SOURCE
from seirvax.normal_form import NORMAL_SOURCE

# sigma != gamma, and mu large enough for the constrained law's gate.
P = ModelParams(N=1000.0, mu=0.3, omega=0.02, beta=0.9, sigma=0.2, gamma=0.15)

LAWS = (ZeroVax(), ConstantVax(0.3), SusceptibleLinear(0.05),
        SusceptiblePlusExposed(0.005), ImmuneFeedback(0.01, 0.05),
        ConstrainedImmuneFeedback(-0.05), Linearizing(0.1, 0.05),
        OutputZeroing())


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.name)
def test_closed_loop_is_a_unit_complex_step(law):
    # Field and laws are at most quadratic in the state, so the imaginary
    # part of one unit complex step is the derivative, rounded as forward
    # mode rounds it.
    shape, values = law_program(law, P)
    field = function(SEIR_SOURCE)(*SEIR_SOURCE.bind(P))
    V = law_function(shape)(*values)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = random_conserved_state(rng, P.N).as_tuple()
        step = np.empty((4, 4))
        for k in range(4):
            z = [complex(v) for v in x]
            z[k] += 1j
            step[:, k] = [r.imag for r in field(*z, V(*z, 3.0))]
        assert (closed_loop_jacobian(SEIR_SOURCE, law, P, x, 3.0) == step).all()


def test_normal_form_is_the_plant_in_z():
    # z = T x with z1 = R, z2 = S + R, z3 = E, z4 = I: the normal form's
    # Jacobian under a law is T J T^-1 of the x-space closed loop.
    T = np.array([[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    rng = np.random.default_rng(8)
    for law in (Linearizing(0.1, 0.05), Linearizing(0.4, 0.01)):
        for _ in range(20):
            x = random_conserved_state(rng, P.N)
            jx = closed_loop_jacobian(SEIR_SOURCE, law, P, x.as_tuple())
            jz = closed_loop_jacobian(NORMAL_SOURCE, law, P, to_normal(x))
            want = T @ jx @ np.linalg.inv(T)
            assert np.max(np.abs(jz - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [
    ("clip", ("expr", "0.0", ())),      # a Saturated law's if statements
    ("expr", "1.0 / S", ()),            # a divisor that depends on the state
    ("expr", "sqrt(S)", ()),            # a call
], ids=["clip", "state divisor", "call"])
def test_refuses_what_it_cannot_differentiate(shape):
    with pytest.raises(ValueError, match="cannot differentiate"):
        jacobian(SEIR_SOURCE, shape)


def test_one_clip_level():
    # A Saturated law clips once: its expression's constants take the
    # prefix L1_ and its bounds L0_, after the expression.
    from seirvax.kernels import _law_args, _law_lines
    shape = ("clip", ("expr", "g * S - t", ("g",)))
    assert _law_lines(shape, "V", ("s0", "s1", "s2", "s3"), "t + h") == [
        "V = L1_g * s0 - (t + h)",
        "if V < L0_lo: V = L0_lo",
        "elif V > L0_hi: V = L0_hi"]
    assert _law_args(shape) == ["L1_g", "L0_lo", "L0_hi"]
    assert _law_args(shape[1]) == ["L0_g"]
