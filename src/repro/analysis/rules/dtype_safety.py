"""RP2xx — bit-exact datatype safety.

Table 3's datatype comparison is only meaningful if every value in a
fixed-point campaign actually lives in the declared format, and ``==``
on floats compares bit patterns the formats may not even be able to
represent.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.rules.atomicity import _attr_chain

__all__ = ["FloatEquality"]

#: Non-finite sentinels that float equality can never match reliably.
_NONFINITE_ATTRS = frozenset({"inf", "nan", "NAN", "NaN", "Inf", "Infinity", "NINF", "PINF"})


def _is_float_operand(node: ast.expr) -> bool:
    """Float literal, ``-literal``, or a non-finite constant attribute."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    chain = _attr_chain(node)
    return len(chain) == 2 and chain[0] in ("np", "numpy", "math") and chain[1] in _NONFINITE_ATTRS


@register
class FloatEquality(Rule):
    """Flag ``==`` / ``!=`` against float literals or inf/nan.

    Exempt under ``float-eq-exempt-paths`` (tests and benchmarks by
    default): asserting *bit-exact* equality against known values is the
    point of the dtype test suites.
    """

    id = "RP201"
    name = "float-equality"
    summary = "float ==/!= is not bit-exact across datatypes; use isclose/isinf/isnan"
    exempt_key = "float_eq_exempt_paths"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_operand(lhs) or _is_float_operand(rhs):
                    yield self.finding(
                        ctx,
                        node,
                        "exact float comparison; quantized formats may not represent "
                        "the literal — use math.isclose/np.isclose (or np.isinf/np.isnan)",
                    )
                    break

