"""Every function, method and class of the package has a user, and every
parameter and local variable a reader.

A name defined in `src/residuum` must occur, as a whole word, in the text
of `src/`, `tests/` and `bench/` more often than it is defined; otherwise
nothing calls it and it is dead code.  Dunder names are exempt, since the
language calls them.  The rule cannot see a chain of definitions that only
call each other, nor a name shared by a live and a dead definition.  For
static and class methods, which share names such as `zero` across classes,
a second rule asks for the qualified `Class.name` (or `cls.name`).

A definition that only the tests reach is listed in `TEST_FACING`, with
its reason: the set of definitions that no code in `src/`, `bench/` or
`tools/` reads (as a name, an attribute or an import; docstrings do not
count) must equal its keys.  This rule cannot see a name shared with a
live definition either: a test-only `TestForm.wedge` would hide behind
`MeroForm.wedge`.

Every error type without subclasses in `errors.py` is raised somewhere in
`src/`: a type whose check was deleted would still be referenced by the
tests that import it, so the rule above cannot see it.

Inside each function, a parameter (other than `self`) or an assigned name
(other than one starting with `_`) that neither the function nor a function
nested in it reads is dead too.  So is a module-level import whose name the
module never reads.  And a name that a function or comprehension reads as a
global must be defined: by the module, after import, or as a builtin.

No module or class body defines one name twice (by def, class or
assignment): the later definition replaces the earlier one, which is dead
but still counts as a definition for the rules above.

Every default value, of a parameter or of a dataclass field, is listed in
`DEFAULTS` with a caller that omits it: a default that every call passes
anyway is a second way to write the same call.

The exact layer does not load numpy: importing the package leaves it out
of `sys.modules`, and the numeric routines import it when they first run.
"""

import ast
import builtins
import importlib
import os
import re
import subprocess
import symtable
import sys
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


def _redefined():
    """(file, scope, name) for every name that one module or class body of
    the package defines twice, by def, class or assignment: the later
    definition silently replaces the earlier one."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            names = Counter()
            for stmt in scope.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names[stmt.name] += 1
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            name = getattr(scope, "name", "<module>")
            out += [(path.name, name, n) for n, k in sorted(names.items()) if k > 1]
    return out


def test_no_body_defines_a_name_twice():
    twice = _redefined()
    assert not twice, f"defined twice in one body: {twice}"


def test_every_definition_is_referenced():
    # a token count is the count of whole-word matches for an identifier
    tokens = Counter(re.findall(r"\w+", _corpus()))
    unused = sorted(name for name, count in _definitions().items() if tokens[name] <= count)
    assert not unused, f"defined but never referenced: {unused}"


# Definitions that only the tests reach, each with the reason it stays.
TEST_FACING = {
    "certificate_holds": "test oracle of the Leray certificate; ROADMAP item 12 records it",
    "d_on_hypersurface": "test oracle of residue-class equality; ROADMAP item 0's witness check",
    "divides": "test oracle of exact division",
    "embed_holomorphic": "builds test functions from holomorphic polynomials",
    "entry": "reads the (k, mu, l) operator table in tests; ROADMAP item 3 deletes the table",
    "eval_exact": "test oracle of polynomial arithmetic at exact points",
    "radial": "builds the plain cutoff as a test function",
    "squarefree_decompose": "ROADMAP item 1 splits denominators with it; tests pin it until then",
    "translate": "builds off-centre test functions",
}


def _read_outside_tests() -> set:
    """Every name that code in `src/`, `bench/` or `tools/`, test files
    apart, reads as a name, an attribute or an imported name."""
    read = set()
    for top in ("src", "bench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.rpartition(".")[2])
    return read


def test_only_listed_definitions_are_test_facing():
    test_only = set(_definitions()) - _read_outside_tests()
    assert test_only == set(TEST_FACING), (
        f"reached only by tests, not listed: {sorted(test_only - set(TEST_FACING))}; "
        f"listed, but read outside the tests: {sorted(set(TEST_FACING) - test_only)}")


def _unqualified_class_level_methods():
    """Class.name for every staticmethod and classmethod of the package that
    the corpus never reads as `Class.name` or `cls.name`."""
    text, out = _corpus(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                        isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                        for d in fn.decorator_list):
                    pattern = rf"\b(?:{re.escape(cls.name)}|cls)\.{re.escape(fn.name)}\b"
                    if not re.search(pattern, text):
                        out.append(f"{cls.name}.{fn.name}")
    return out


def test_every_static_and_class_method_is_called_by_class():
    unused = _unqualified_class_level_methods()
    assert not unused, f"static or class methods never called as Class.name: {unused}"


def _raised_in_src() -> set:
    """The names of the exception classes that a `raise` in `src/residuum`
    instantiates or re-raises by name."""
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_leaf_error_type_is_raised():
    classes = [node for node in ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    parents = {base.id for cls in classes for base in cls.bases if isinstance(base, ast.Name)}
    leaves = {cls.name for cls in classes} - parents
    assert "ChartError" in leaves
    never = sorted(leaves - _raised_in_src())
    assert not never, f"error types that nothing in src/ raises: {never}"


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


def _module_imports(tree: ast.Module):
    """(line, bound name) for every import statement at module level, also
    inside a module-level `if` or `try`, but not `from __future__`."""
    out, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [stmt for h in getattr(node, "handlers", []) for stmt in h.body]
        elif isinstance(node, ast.Import):
            out += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, a.asname or a.name) for a in node.names]
    return out


def _unused_imports():
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [(path.name, line, name) for line, name in _module_imports(tree)
                if name not in read]
    return sorted(out)


def test_every_module_import_is_read():
    unused = _unused_imports()
    assert not unused, f"imported but never read: {unused}"


def _undefined_globals():
    """(file, scope, name) for every implicit global that a function scope of
    the package, comprehensions and lambdas included, reads and never
    assigns, and that neither the imported module nor `builtins` defines."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = "residuum" if path.stem == "__init__" else f"residuum.{path.stem}"
        known = set(vars(importlib.import_module(name))) | set(vars(builtins))
        todo = symtable.symtable(path.read_text(), str(path), "exec").get_children()
        while todo:
            table = todo.pop()
            todo += table.get_children()
            if table.get_type() != "function":
                continue
            out |= {(path.name, table.get_name(), sym.get_name())
                    for sym in table.get_symbols()
                    if sym.is_global() and not sym.is_declared_global()
                    and sym.is_referenced() and not sym.is_assigned()
                    and sym.get_name() not in known}
    return out


def test_every_global_read_is_defined():
    # lower_pole_order calls a helper that nothing defines (ROADMAP item 0);
    # the fix must delete this entry
    known_defect = {("leray.py", "lower_pole_order", "_polar_digit_forms")}
    assert _undefined_globals() == known_defect


# Every default of the package, each with a caller that omits it.
DEFAULTS = {
    "BumpFunction.radial.center": "tests build centred cutoffs: test_forms.py",
    "BumpFunction.from_poly.center": "tests build centred bumps: test_forms.py",
    "contour_residue_numeric.center": "the contour about 0: test_dim1.py",
    "_Form._new.grading": "map_coeffs and __add__ keep the grading",
    "_horner.var": "MultiPoly.eval_exact and _horner_numeric start at variable 0",
    "RatFn.__init__.den": "RatFn(p) for a polynomial p, throughout src/",
    "GaussianRational.__init__.im": "GaussianRational(0) and other real values, throughout src/",
    "LimitResult.note": "quadrature.limit gives no note",
}


def _defaults() -> set:
    """`scope.name` for every parameter with a default (scope is the
    function's qualified name) and every dataclass field with a default
    (scope is the class) in `src/residuum`."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    out.update(f"{child.name}.{stmt.target.id}" for stmt in child.body
                               if isinstance(stmt, ast.AnnAssign) and stmt.value is not None)
                visit(child, scope + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + (child.name,))
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                out.update(f"{name}.{a.arg}" for a in with_default)
                visit(child, scope + (child.name,))

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), ())
    return out


def test_every_default_is_listed():
    found = _defaults()
    assert found == set(DEFAULTS), (
        f"defaults not listed: {sorted(found - set(DEFAULTS))}; "
        f"listed, but not defaults: {sorted(set(DEFAULTS) - found)}")


def _program_modules():
    """bench/run.py's PROGRAM_MODULES, read without running bench/run.py."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PROGRAM_MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no PROGRAM_MODULES")


NUMPY_PROBE = """
import importlib, sys
for name in {modules!r}:
    importlib.import_module("residuum." + name)
assert "numpy" not in sys.modules, "importing the package loaded numpy"
from fractions import Fraction
from residuum.polynomials import MultiPoly
from residuum.scalars import GaussianRational
z1, z2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
p = z1 * z1 * z2 * GaussianRational(1, 2) - MultiPoly.const(2, Fraction(3, 2))
v = p.eval_numeric([[1 + 1j, 2], [0, 3]])   # (1 + 2i) (2i) 2 - 3/2 and -3/2
assert "numpy" in sys.modules
assert v.tolist() == [-9.5 + 4j, -1.5 + 0j], v
print("ok")
"""


def test_exact_layer_loads_numpy_on_first_numeric_call():
    modules = _program_modules()
    assert {"polynomials", "ratfn", "forms", "dim1"} <= set(modules)
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE.format(modules=modules)],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr
