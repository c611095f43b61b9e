"""Straight-line kernels generated from source: vector fields, laws, steppers.

Each vector field is written once, as source (`FieldSource`), and each
law class gives its vaccination fraction V as one Python expression
(`laws.ControlLaw.v_expr`). A law's *shape* is that expression with the
names of its constants, wrapped in ("clip", inner) for a `Saturated`
law, which clips once. From these pieces this module writes:

  - `function(field)`: the field as a plain function of (state, V);
  - `law_function(shape)`: the law as a V(S, E, I, R, t) closure;
  - `kernel(template, field, shape)`: a stepper template with the field
    and the law inlined at every stage, so that a step makes no Python
    call per stage;
  - `jacobian(field, shape)`: the closed loop's Jacobian, differentiated
    in forward mode from the same statements the kernels inline.

Each is compiled lazily, on first use, and cached per field and law
shape: gains and parameters are arguments of the generated code, so a
new parameter draw reuses the compiled kernel. The closure and the
kernels evaluate the same text with the same constants, so V from
`laws.compile_law` and V recorded by an integrator are bitwise equal.

Template syntax (see `integrator._RK4` and `integrator._DOPRI`):

  - a line containing `{c}` is written four times, for c = 0..3;
  - `@V = law(s, T)` evaluates the law at the state s0..s3 and time T;
  - `@k = field(s, V)` sets k_0..k_3 to the field at s0..s3 with input V;
  - `{args}` is the list of the field's and the law's constants;
  - `{{`, `}}` stand for literal braces.
"""

from __future__ import annotations

import ast
import linecache
import math
import re
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

__all__ = ["FieldSource", "function", "law_function", "kernel", "jacobian"]

_NAME = re.compile(r"\b[A-Za-z_]\w*\b")
_DIRECTIVE = re.compile(r"^(\s*)@(\w+) = (law|field)\((\w+), (.+)\)$")
_COMPONENTS = range(4)
# A sample row (t, y0, y1, y2, y3, V) as six native doubles, for a kernel
# to append to an array("d") (`row`) or to write into one (`row_into`).
_ROW = struct.Struct("6d")

# A law shape: ("expr", expression, constant names) or ("clip", expr shape).
Shape = tuple


@dataclass(frozen=True, eq=False)
class FieldSource:
    """A 4-component vector field (state, V) -> rates, written once as source.

    `body` assigns temporaries and `rates` are the four rate expressions,
    both in the names `state`, the input `V` and the constants `consts`,
    whose values `bind(params)` gives in the same order. `law_state` is
    (S, E, I, R) as expressions in `state`: where a law reads the state.
    It hashes by identity, cheaply: each field is one module constant.
    """

    name: str
    state: tuple[str, str, str, str]
    consts: tuple[str, ...]
    body: tuple[str, ...]
    rates: tuple[str, str, str, str]
    law_state: tuple[str, str, str, str]
    bind: Callable[..., tuple[float, ...]]

    def lines(self, at: tuple[str, ...], V: str, out: str) -> list[str]:
        """Statements setting out_0..out_3 to the field at the names `at`."""
        names = dict(zip(self.state, at), V=V)
        # constants and temporaries get the field's prefix
        sub = _renamer(names, "f_")
        return ([sub(line) for line in self.body]
                + [f"{out}_{c} = {sub(rate)}" for c, rate in enumerate(self.rates)])

    def args(self) -> list[str]:
        return ["f_" + name for name in self.consts]


def _renamer(names: dict[str, str], prefix: str) -> Callable[[str], str]:
    """Rewrite each identifier of a source text: `names` maps some, the
    rest get `prefix`."""
    return lambda src: _NAME.sub(lambda m: names.get(m[0], prefix + m[0]), src)


def _law_lines(shape: Shape, target: str, state: tuple[str, ...],
               t: str) -> list[str]:
    """Statements setting `target` to V at (S, E, I, R) = state and time t;
    a clip's expression takes the prefix L1_, its bounds L0_lo, L0_hi."""
    names = dict(zip("SEIR", (s if s.isidentifier() else f"({s})" for s in state)))
    names["t"] = t if t.isidentifier() else f"({t})"
    if shape[0] != "clip":
        return [f"{target} = " + _renamer(names, "L0_")(shape[1])]
    return [f"{target} = " + _renamer(names, "L1_")(shape[1][1]),
            f"if {target} < L0_lo: {target} = L0_lo",
            f"elif {target} > L0_hi: {target} = L0_hi"]


def _law_args(shape: Shape) -> list[str]:
    """The law's constants as kernel arguments, in the order of its values."""
    if shape[0] == "clip":
        return [f"L1_{name}" for name in shape[1][2]] + ["L0_lo", "L0_hi"]
    return [f"L0_{name}" for name in shape[2]]


def _compile(source: str, name: str, label: str) -> Callable:
    """Execute generated source and return its function `name`.

    The source is registered with linecache so tracebacks show it.
    """
    filename = f"<seirvax {label}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    namespace = {"sqrt": math.sqrt, "isfinite": math.isfinite, "inf": math.inf,
                 "row": _ROW.pack, "row_into": _ROW.pack_into}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _make(inner: str, args: list[str], params: str, body: list[str],
          result: str, label: str) -> Callable[..., Callable]:
    """make(*args) -> the function `inner`(params) that runs the statements
    `body` and returns `result`."""
    return _compile("\n".join([
        f"def make({', '.join(args)}):",
        f"    def {inner}({params}):",
        *("        " + line for line in body),
        f"        return {result}",
        f"    return {inner}", ""]), "make", label)


@lru_cache(maxsize=None)
def function(field: FieldSource) -> Callable[..., Callable]:
    """make(*field constants) -> the field as f(y0, y1, y2, y3, V) -> rates."""
    return _make("field", field.args(), ", ".join((*field.state, "V")),
                 field.lines(field.state, "V", "r"), "(r_0, r_1, r_2, r_3)",
                 f"field {field.name}")


@lru_cache(maxsize=256)
def law_function(shape: Shape) -> Callable[..., Callable]:
    """make(*law constants) -> the law as V(S, E, I, R, t)."""
    return _make("law", _law_args(shape), "S, E, I, R, t",
                 _law_lines(shape, "V", tuple("SEIR"), "t"), "V", f"law {shape!r}")


@lru_cache(maxsize=256)
def kernel(template: str, field: FieldSource, shape: Shape) -> Callable:
    """The stepper `template` with `field` and the law `shape` inlined.

    The template's `{args}` is filled with the field's and then the law's
    constants, which the caller passes in that order.
    """
    args = ", ".join(field.args() + _law_args(shape))
    lines = []
    for line in template.splitlines():
        if "{c}" in line:
            lines.extend(line.format(c=c) for c in _COMPONENTS)
            continue
        line = line.format(args=args)
        match = _DIRECTIVE.match(line)
        if not match:
            lines.append(line)
            continue
        indent, target, what, at, last = match.groups()
        state = tuple(f"{at}{c}" for c in _COMPONENTS)
        if what == "law":
            sub = _renamer(dict(zip(field.state, state)), "")
            block = _law_lines(shape, target, tuple(map(sub, field.law_state)), last)
        else:
            block = field.lines(state, last, target)
        lines.extend(indent + stmt for stmt in block)
    source = "\n".join(lines) + "\n"
    name = template.split("(", 1)[0].split()[-1]
    return _compile(source, name, f"{name} {field.name} {shape!r}")


@lru_cache(maxsize=256)
def jacobian(field: FieldSource, shape: Shape) -> Callable[..., Callable]:
    """make(*field constants, *law constants) -> J(y0, y1, y2, y3, t), the
    Jacobian of `field` under the law `shape` as four row tuples.

    Forward mode (Griewank & Walther, Evaluating Derivatives, 2008) over
    the statements `kernel` inlines, parsed once. Anything but + - * /
    (by state-free divisors) and unary minus, such as a `Saturated` clip's
    `if`, raises ValueError.
    """
    grads = {y: tuple("1.0" if c == k else None for c in _COMPONENTS)
             for k, y in enumerate(field.state)}
    lines = (_law_lines(shape, "V", field.law_state, "t")
             + field.lines(field.state, "V", "r"))
    for stmt in ast.parse("\n".join(lines)).body:
        if not isinstance(stmt, ast.Assign):
            raise ValueError(f"cannot differentiate {ast.unparse(stmt)!r}")
        grads[stmt.targets[0].id] = _tangent(stmt.value, grads)
    rows = ", ".join("(" + ", ".join(d or "0.0" for d in grads[f"r_{c}"]) + ")"
                     for c in _COMPONENTS)
    return _make("jacobian", field.args() + _law_args(shape),
                 ", ".join((*field.state, "t")), lines[:-4], f"({rows})",
                 f"jacobian {field.name} {shape!r}")


def _tangent(node: ast.expr, grads: dict) -> tuple:
    """The four partials of an expression as text, None where zero."""
    if isinstance(node, (ast.Constant, ast.Name)):
        return grads.get(getattr(node, "id", None), (None,) * 4)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return tuple(_join(None, "-", d) for d in _tangent(node.operand, grads))
    op = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}.get(
        type(getattr(node, "op", None)))
    if op:
        da, db = _tangent(node.left, grads), _tangent(node.right, grads)
        a, b = (f"({ast.unparse(n)})" for n in (node.left, node.right))
        if op == "*":   # x*b + a*y, a unit partial dropped
            return tuple(_join(x and (b if x == "1.0" else f"({x} * {b})"), "+",
                               y and (a if y == "1.0" else f"({a} * {y})"))
                         for x, y in zip(da, db))
        if op in "+-":
            return tuple(_join(x, op, y) for x, y in zip(da, db))
        if not any(db):
            return tuple(x and f"({x} / {b})" for x in da)
    raise ValueError(f"cannot differentiate {ast.unparse(node)!r}")


def _join(x, op: str, y):
    """The partial x op y (op + or -) as text, None standing for zero."""
    if y is None:
        return x
    return (y if op == "+" else f"(-{y})") if x is None else f"({x} {op} {y})"
