"""Every exported name has a user: package code, the benchmark, or a test
that keeps it as a reference oracle."""

import ast
from pathlib import Path

import binform

ROOT = Path(__file__).resolve().parents[1]

# Exported names that only tests reach, kept on purpose.
KEPT_ORACLES = {
    # the MultiForm reference layer that project_pi and section_iota are
    # checked against; bench/tracing.py also resolves omega_power by name
    "evaluate", "polarize", "substitute_pair", "omega_power",
    # the derivative-sum route the benchmark checks transvect against
    "transvect_derivative",
    # the paper's closed formulas
    "u2_u3_formulas", "trace_element",
}


def _referenced(paths) -> set:
    """Every name a module loads, reads as an attribute, imports, or spells
    as a whole string (bench/tracing.py resolves boundaries by name)."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_export_has_a_user():
    package = [p for p in (ROOT / "src" / "binform").glob("*.py") if p.name != "__init__.py"]
    used = _referenced(package) | _referenced((ROOT / "bench").glob("*.py"))
    unused = [name for name in binform.__all__ if name not in used | KEPT_ORACLES]
    assert not unused, f"exported but reached by nothing: {unused}"


def test_kept_oracles_are_exported():
    assert KEPT_ORACLES <= set(binform.__all__)
