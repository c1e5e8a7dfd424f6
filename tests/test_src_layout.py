"""`src/` holds what the command line, the scripts and the benchmark run.

A public module-level function or class of kickedtop that nothing in `src/`
(outside its own definition and `__init__`), `scripts/` or `bench/` refers to
is a test helper, and belongs in `tests/`.  References are resolved from the
syntax tree: a name used in its own module, a `from ... import name`, or an
attribute of a name bound to its module (`exact3.name`, `cl.name`).  Words in
strings and comments do not count, so a local variable that shares a public
name is not mistaken for a caller.

The same holds for the public methods and properties of the package's
classes.  Without types, a member is resolved by its name alone: any
attribute access `anything.name` in those directories, outside the member's
own definition, counts as a reference to every member called `name`.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kickedtop"

# Public names kept in src/ without a caller there.  BENCHMARK.json names a
# per-layer metric on each (read through bench/tracer.py), and
# tests/test_bench_names.py requires every such metric to stay measurable, so
# they stay until the benchmark's metrics are renamed.
ALLOWED_WITHOUT_CALLER = {
    "kickedtop.cheby.t_u_recurrence",  # cheby.t_u_recurrence.calls, cheby.recurrence_steps
    "kickedtop.measures.reduced_state",  # measures.reduced_state.{calls,busy_s,self_s}
    "kickedtop.measures.concurrence",  # measures.concurrence.{calls,busy_s}
}


# Public members kept without a caller in src/, scripts/ or bench/: the
# drift diagnostics of an evolved state and of a classical orbit, which
# ROADMAP item 6 reports as part of what a run can show about its accuracy.
MEMBERS_WITHOUT_CALLER = {
    "kickedtop.symspace.SymState.norm_error",
    "kickedtop.classical.ClassicalPoint.norm_error",
}


def public_names() -> dict[str, tuple[str, str]]:
    """'kickedtop.module.name' -> (module, name) of every public function and
    class defined at module level in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"kickedtop.{path.stem}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                found[f"{module.__name__}.{name}"] = (path.stem, name)
    return found


def module_of(node: ast.ImportFrom) -> str | None:
    """The kickedtop module an ImportFrom reads from, or None."""
    if node.level == 1:
        return node.module or ""
    if node.module == "kickedtop":
        return ""
    if node.module and node.module.startswith("kickedtop."):
        return node.module.partition(".")[2]
    return None


def references(path: Path, own_module: str | None) -> set[tuple[str, str]]:
    """(module, name) pairs the file refers to; own_module is the file's module
    in the package (None outside it), whose bare names resolve to itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}  # local name -> kickedtop module
    found: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (source := module_of(node)) is not None:
            for alias in node.names:
                if source:
                    found.add((source, alias.name))
                else:  # from . import exact3 as e3
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("kickedtop.") and alias.asname:
                    aliases[alias.asname] = alias.name.partition(".")[2]
    definitions = {id(node): node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def visit(node, inside: str | None):
        inside = definitions.get(id(node), inside)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and own_module and node.id != inside:
            found.add((own_module, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, None)
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    used: set[tuple[str, str]] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= references(path, path.stem)
    for directory in ("scripts", "bench"):
        for path in (ROOT / directory).glob("*.py"):
            used |= references(path, None)
    without_caller = {full for full, key in public_names().items() if key not in used}
    assert without_caller == ALLOWED_WITHOUT_CALLER


def test_resolution_sees_aliases_and_ignores_strings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""mentions exact4.tunneling only in words"""\n'
        "from kickedtop import classical as cl\n"
        "from kickedtop.exact3 import avg_entropy3\n"
        "step = 1\n"
        "cl.portrait([], 0.0, step)\n"
    )
    assert references(source, None) == {("exact3", "avg_entropy3"), ("classical", "portrait")}


def public_members() -> dict[str, str]:
    """'kickedtop.module.Class.member' -> member of every public method,
    property, classmethod and staticmethod a package class defines itself."""
    kinds = (property, classmethod, staticmethod)
    found = {}
    for full, (stem, name) in public_names().items():
        obj = getattr(importlib.import_module(f"kickedtop.{stem}"), name)
        if inspect.isclass(obj):
            for member, value in vars(obj).items():
                if not member.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds)):
                    found[f"{full}.{member}"] = member
    return found


def attribute_names(path: Path) -> set[str]:
    """Names accessed as an attribute (`x.name`) in the file, outside any
    function or method of that same name (a member's own definition)."""
    found: set[str] = set()

    def visit(node, inside: str | None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Attribute) and node.attr != inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_public_member_has_a_caller_outside_the_tests():
    used: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= attribute_names(path)
    for directory in ("scripts", "bench"):
        for path in (ROOT / directory).glob("*.py"):
            used |= attribute_names(path)
    without_caller = {full for full, member in public_members().items() if member not in used}
    assert without_caller == MEMBERS_WITHOUT_CALLER


def test_member_resolution_skips_own_body_and_strings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""mentions point.overlap only in words"""\n'
        "class Point:\n"
        "    def norm(self):\n"
        "        return self.norm() + self.size\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.norm()\n"
        "print(Point().size, 'x.unused')\n"
    )
    assert attribute_names(source) == {"norm", "size"}
    source.write_text("def norm(p):\n    return p.norm\n")
    assert attribute_names(source) == set()
