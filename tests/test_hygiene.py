"""Every function, method and class of the package has a user, and every
parameter and local variable a reader.

A name defined in `src/residuum` must occur, as a whole word, in the text
of `src/`, `tests/` and `bench/` more often than it is defined; otherwise
nothing calls it and it is dead code.  Dunder names are exempt, since the
language calls them.  The rule cannot see a chain of definitions that only
call each other, nor a name shared by a live and a dead definition.

Inside each function, a parameter (other than `self`) or an assigned name
(other than one starting with `_`) that neither the function nor a function
nested in it reads is dead too.
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


def _unread_names():
    """(file, function, name) for every parameter other than `self`, and
    every assigned name not starting with `_`, that the function and the
    functions nested in it never read."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]} - {"self"}
            stored, read = set(), set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Name):
                    (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
            stored = {s for s in stored if not s.startswith("_")}
            out += [(path.name, fn.name, name) for name in sorted((params | stored) - read)]
    return out


def test_every_parameter_and_local_is_read():
    unread = _unread_names()
    assert not unread, f"assigned or passed but never read: {unread}"
