"""The import graph under ``src/repro/`` is the layer ladder.

The ladder is written down once, in the README's Architecture map; this test
reads it from there.  A package may import only from rungs to its left, so
every package edge points down and none can close a cycle.  Function-local
imports count (they are how a cycle gets hidden); ``if TYPE_CHECKING:``
blocks do not (nothing is imported at run time).  There is no allow-list.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: ``repro/__init__.py`` and ``repro/__main__.py`` — the package's face,
#: above every rung: it may import anything, nothing may import it.
FACE = "repro"


def read_ladder() -> Dict[str, int]:
    """Rung name -> position, from the one line in the README."""
    line = next(
        line.strip()
        for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        if line.strip().startswith("obs → ")
    )
    ladder: Dict[str, int] = {}
    for position, rung in enumerate(line.split(" → ")):
        for name in rung.strip("{}").split(","):
            ladder[name.strip()] = position
    ladder[FACE] = position + 1
    return ladder


def rung_of(module: str, ladder: Dict[str, int]) -> Optional[str]:
    """The rung a dotted module name lives on (``None``: not this package).

    A name under ``repro`` that is no rung — ``repro.__main__``, or the
    ``VersionStore`` of ``from repro import VersionStore`` — is the face.
    """
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 and parts[1] in ladder else FACE


def runtime_imports(tree: ast.AST) -> Iterator[ast.stmt]:
    """Every import statement that executes, at any depth."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def imported_modules(statement: ast.stmt, package: List[str]) -> List[str]:
    """Dotted names ``statement`` imports, seen from a module in ``package``."""
    if isinstance(statement, ast.Import):
        return [alias.name for alias in statement.names]
    base = [statement.module] if statement.module else []
    if statement.level:
        base = package[: len(package) - statement.level + 1] + base
    return [".".join(base + [alias.name]) for alias in statement.names]


def upward_edges(src: Path = SRC) -> List[str]:
    """``file:line: importer -> imported`` for every import that is not downward."""
    ladder = read_ladder()
    edges = set()
    for path in src.rglob("*.py"):
        module = list(path.relative_to(src.parent).with_suffix("").parts)
        source = rung_of(".".join(module), ladder)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in runtime_imports(tree):
            for name in imported_modules(statement, module[:-1]):
                target = rung_of(name, ladder)
                if target not in (None, source) and ladder[target] >= ladder[source]:
                    file = str(path.relative_to(src.parent.parent))
                    edges.add((file, statement.lineno, source, target))
    return [f"{file}:{line}: {source} -> {target}" for file, line, source, target in sorted(edges)]


def test_the_ladder_names_exactly_the_packages_in_src():
    on_disk = {
        path.stem if path.is_file() else path.name
        for path in SRC.iterdir()
        if (path.is_dir() and (path / "__init__.py").is_file())
        or (path.suffix == ".py" and not path.name.startswith("__"))
    }
    assert set(read_ladder()) - {FACE} == on_disk


def test_no_upward_or_cyclic_package_edge():
    edges = upward_edges()
    assert not edges, "imports that climb the ladder:\n  " + "\n  ".join(edges)
