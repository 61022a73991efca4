"""The package's import rules, read off its source with ``ast``.

No module imports a private name of another.  ``xpoly``, the F[x] arithmetic
and its two formats, imports no ``intclose`` module, so every layer can use
it.  ``conductor``, ``linalg`` and ``lifting`` take that arithmetic from
``xpoly``, never from ``closure``, the Frobenius walk.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "intclose"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def intclose_imports(module: str) -> list:
    """(imported module, [names]) for each import of an ``intclose`` module in
    the source of ``module``; the package itself reads as ''."""
    out = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "intclose" and not name.startswith("intclose."):
                    continue
                name = name.partition(".")[2]
            out.append((name, [alias.name for alias in node.names]))
        elif isinstance(node, ast.Import):
            out += [(alias.name.partition(".")[2], []) for alias in node.names
                    if alias.name == "intclose" or alias.name.startswith("intclose.")]
    return out


def is_fx(name: str) -> bool:
    """Whether a name is F[x] arithmetic: a function ``xpoly`` defines, or a
    name that starts with ``xpoly``."""
    tree = ast.parse((SRC / "xpoly.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return name in defined or name.startswith("xpoly")


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name(module):
    private = [(source, name) for source, names in intclose_imports(module)
               for name in names if name.startswith("_")]
    assert private == []


def test_xpoly_imports_no_intclose_module():
    assert intclose_imports("xpoly") == []


@pytest.mark.parametrize("module", ["conductor", "linalg", "lifting"])
def test_fx_arithmetic_is_not_taken_from_the_walk(module):
    imports = intclose_imports(module)
    from_closure = {name for source, names in imports if source == "closure" for name in names}
    assert [name for name in from_closure if is_fx(name)] == []
    assert not any(source == "" and "closure" in names for source, names in imports)
    if module != "lifting":            # the two layers below the walk import none of it
        assert from_closure == set()
