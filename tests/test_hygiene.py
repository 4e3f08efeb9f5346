"""Every function, method and class of the package has a user.

A name defined in `src/residuum` must occur, as a whole word, in the text
of `src/`, `tests/` and `bench/` more often than it is defined; otherwise
nothing calls it and it is dead code.  Dunder names are exempt, since the
language calls them.  The rule cannot see a chain of definitions that only
call each other, nor a name shared by a live and a dead definition.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "residuum"
SEARCHED = ("src", "tests", "bench")


def _definitions():
    defined = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    defined[node.name] += 1
    return defined


def _corpus() -> str:
    return "\n".join(path.read_text() for top in SEARCHED
                     for path in sorted((ROOT / top).rglob("*.py")))


def test_every_definition_is_referenced():
    text = _corpus()
    unused = sorted(name for name, count in _definitions().items()
                    if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count)
    assert not unused, f"defined but never referenced: {unused}"
