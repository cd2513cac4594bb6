"""The library computes exactly: no floating point in its source.

An AST scan of every module under src/enriques_invariants rejects float
literals, the name `float`, and the float-valued math functions sqrt, pow,
floor and ceil.  floor and ceil are the identity on integers, so any call
of them rounds a non-integer; exact code uses `//` and `math.isqrt`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "enriques_invariants"
FLOAT_MATH = {"sqrt", "pow", "floor", "ceil"}


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name in FLOAT_MATH
            ]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_floats(path):
    assert float_uses(path.read_text()) == []


def test_scan_covers_every_module():
    assert {p.name for p in SRC.glob("*.py")} >= {
        "lattice.py",
        "surface.py",
        "cohomology.py",
        "decomposition.py",
        "moduli.py",
        "cli.py",
    }


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "y = float(3)",
        "ok = isinstance(v, float)",
        "import math\nr = math.sqrt(2)",
        "import math\nr = math.pow(2, 3)",
        "import math\nr = math.floor(a / b)",
        "import math\nr = math.ceil(c - r)",
        "from math import sqrt",
    ],
)
def test_scan_flags_float_code(source):
    assert float_uses(source)


def test_scan_accepts_exact_code():
    source = "import math\nfrom fractions import Fraction\n"
    source += "r = math.isqrt(10) + math.gcd(4, 6) + 7 // 2\nq = Fraction(1, 3)\n"
    assert float_uses(source) == []
