"""The package's module boundaries: the oracles stay independent of the engine."""

import ast
from pathlib import Path

import bpmatching

PACKAGE = Path(bpmatching.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def package_imports(module):
    """Names of the package modules that ``module``'s source imports."""
    names = set()
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "bpmatching" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            dotted = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        names |= {d.split(".")[1] for d in dotted if d.startswith("bpmatching.")}
    return names & set(MODULES)


def test_package_imports_reads_relative_imports():
    assert package_imports("cli") == {"approx", "core", "engine", "generators",
                                      "oracles", "trees"}
    assert package_imports("approx") == {"core", "engine"}


def test_oracles_and_trees_are_independent_of_the_code_they_check():
    # The engine is message passing on ``core`` alone.  The tree DP and the
    # matching oracles, which the engine is checked against, import only
    # ``core``, and no module but ``cli`` imports them.
    assert package_imports("engine") <= {"core"}
    for module in "oracles", "trees":
        assert package_imports(module) <= {"core"}, module
    for module in set(MODULES) - {"cli"}:
        assert not package_imports(module) & {"oracles", "trees"}, module
