"""`src/` holds what the command line, the scripts and the benchmark run.

A public module-level function or class of kickedtop that nothing in `src/`
(outside its own definition and `__init__`), `scripts/` or `bench/` refers to
is a test helper, and belongs in `tests/`.  References are resolved from the
syntax tree: a name used in its own module, a `from ... import name`, or an
attribute of a name bound to its module (`exact3.name`, `cl.name`).  Words in
strings and comments do not count, so a local variable that shares a public
name is not mistaken for a caller.

The same holds for the public methods and properties of the package's
classes.  A member whose name no other package class uses is resolved by its
name alone: any attribute access `anything.name` in those directories,
outside the member's own definition, counts.  A name that two classes share
is resolved by the receiver's type, read from annotations: `self` and `cls`
in a method, an annotated parameter or variable, a name bound to a class
call (`C(...)`, `C.from_x(...)`) or to a call of a package function with a
return annotation, or such a call itself.  An access to a shared name whose
receiver has no such type fails the test, so that one live member cannot
hide a dead namesake in another class.
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
    # cli imports most command modules inside the functions that use them
    source.write_text(
        "def run(step):\n"
        "    from . import tomo\n"
        "    from . import classical as cl\n"
        "    tomo.reconstruct({})\n"
        "    return cl.portrait([], 0.0, step)\n"
    )
    assert references(source, None) == {("tomo", "reconstruct"), ("classical", "portrait")}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def class_table(trees) -> tuple[dict[str, set[str]], dict[str, str]]:
    """(class name -> its public members, function name -> the package class
    its return annotation names) over the module-level definitions of the
    given syntax trees.  Every public method is a member: plain methods,
    properties, classmethods and staticmethods alike."""
    classes: dict[str, set[str]] = {}
    returns: dict[str, ast.expr] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = {item.name for item in node.body
                                      if isinstance(item, ast.FunctionDef)
                                      and not item.name.startswith("_")}
            elif isinstance(node, ast.FunctionDef) and node.returns is not None:
                returns[node.name] = node.returns
    typed = {}
    for name, annotation in returns.items():
        found = annotated_classes(annotation, classes)
        if len(found) == 1:
            typed[name] = found.pop()
    return classes, typed


def annotated_classes(annotation, classes) -> set[str]:
    """Package classes an annotation names: C, module.C, "C", C | None and
    Optional[C]; a container such as list[C] names none."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotated_classes(ast.parse(annotation.value, mode="eval").body, classes)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return annotated_classes(annotation.left, classes) | annotated_classes(annotation.right, classes)
    if (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)
            and annotation.value.id == "Optional"):
        return annotated_classes(annotation.slice, classes)
    name = getattr(annotation, "id", None) or getattr(annotation, "attr", None)
    return {name} if name in classes else set()


def member_accesses(path: Path, classes, returns) -> tuple[set[tuple[str, str]], list[str]]:
    """((class, member) pairs the file refers to, accesses it cannot type).

    A pair's class is "" for a member name that at most one package class
    defines; an access to a shared name counts for each class its receiver
    resolves to, and is listed as untyped (with its line) when it resolves to
    none."""
    shared = {name for name in set().union(*classes.values())
              if sum(name in members for members in classes.values()) > 1}
    found: set[tuple[str, str]] = set()
    untyped: list[str] = []

    def call_types(call) -> set[str]:
        func = call.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in classes:
            return {name}
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id in classes:
            return {func.value.id}  # a classmethod constructor, C.from_x(...)
        return {returns[name]} if name in returns else set()

    def types_of(node, env) -> set[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id, set())
        if isinstance(node, ast.Call):
            return call_types(node)
        return set()

    def scope(body_owner, env: dict[str, set[str]], owner_class: str | None) -> dict[str, set[str]]:
        env = dict(env)
        if isinstance(body_owner, FUNCTIONS):
            params = body_owner.args.posonlyargs + body_owner.args.args + body_owner.args.kwonlyargs
            for i, arg in enumerate(params):
                if i == 0 and owner_class and arg.arg in ("self", "cls"):
                    env[arg.arg] = {owner_class}
                else:
                    env[arg.arg] = annotated_classes(arg.annotation, classes)
        for node in own_nodes(body_owner):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                env[node.target.id] = env.get(node.target.id, set()) | annotated_classes(
                    node.annotation, classes)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = env.get(target.id, set()) | call_types(node.value)
        return env

    def visit(node, env, owner_class: str | None, inside: str | None):
        if isinstance(node, ast.ClassDef):
            owner_class = node.name
        elif isinstance(node, FUNCTIONS):
            env = scope(node, env, owner_class)
            inside = node.name
        if isinstance(node, ast.Attribute) and node.attr != inside:
            if node.attr not in shared:
                found.add(("", node.attr))
            else:
                receivers = types_of(node.value, env)
                found.update((cls, node.attr) for cls in receivers)
                if not receivers:
                    untyped.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, env, None if isinstance(node, FUNCTIONS) else owner_class, inside)

    tree = ast.parse(path.read_text(encoding="utf-8"))
    visit(tree, scope(tree, {}, None), None, None)
    return found, untyped


def own_nodes(owner):
    """The nodes of a module or function body, without those of the
    functions and classes defined in it."""
    stack = list(ast.iter_child_nodes(owner))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def dead_members(paths, classes, returns) -> tuple[set[str], list[str]]:
    """('Class.member' of every member the files never refer to, untyped
    accesses to shared names)."""
    used: set[tuple[str, str]] = set()
    untyped: list[str] = []
    for path in paths:
        found, missed = member_accesses(path, classes, returns)
        used |= found
        untyped += missed
    dead = {f"{cls}.{member}" for cls, members in classes.items() for member in members
            if ("", member) not in used and (cls, member) not in used}
    return dead, untyped


def caller_paths() -> list[Path]:
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    for directory in ("scripts", "bench"):
        paths += (ROOT / directory).glob("*.py")
    return paths


def test_every_public_member_has_a_caller_outside_the_tests():
    classes, returns = class_table(ast.parse(path.read_text(encoding="utf-8"))
                                   for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    public = {name for _, name in public_names().values()}
    classes = {name: members for name, members in classes.items() if name in public}
    dead, untyped = dead_members(caller_paths(), classes, returns)
    assert untyped == []
    assert dead == {full.split(".", 2)[2] for full in MEMBERS_WITHOUT_CALLER}


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
    classes = {"Point": {"norm", "size"}}
    assert member_accesses(source, classes, {}) == ({("", "norm"), ("", "size")}, [])
    source.write_text("def norm(p):\n    return p.norm\n")
    assert member_accesses(source, classes, {}) == (set(), [])


def test_shared_member_names_resolve_by_receiver_type(tmp_path):
    # Grid.size is live and Cell.size is dead: by name alone, the live one
    # would hide the dead one.
    source = tmp_path / "sample.py"
    source.write_text(
        "class Grid:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 3\n"
        "class Cell:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def area(self) -> 'Grid':\n"
        "        return Grid()\n"
        "def make() -> Grid:\n"
        "    return Grid()\n"
        "def total(grid: Grid, extra: 'Grid | None'):\n"
        "    return grid.size + extra.size\n"
        "g = make()\n"
        "print(g.size, make().size, Grid().size)\n"
    )
    classes, returns = class_table([ast.parse(source.read_text())])
    assert classes == {"Grid": {"size"}, "Cell": {"size", "area"}}
    assert returns == {"make": "Grid"}
    found, untyped = member_accesses(source, classes, returns)
    assert found == {("Grid", "size")} and untyped == []
    assert dead_members([source], classes, returns) == ({"Cell.size", "Cell.area"}, [])
    source.write_text(source.read_text() + "def size_of(thing):\n    return thing.size\n")
    assert member_accesses(source, classes, returns)[1] == ["sample.py:18: thing.size"]


# Every output the command line writes goes through cli._open_output, which
# writes over the old file's bytes and then cuts it to length; a second way
# to open a file for writing would bypass it.
OUTPUT_OPENER = "_open_output"


def file_writes(path: Path, allowed: str | None) -> list[str]:
    """'file:line: call' of each call in the file that opens a file for
    writing, outside the function named allowed: os.open, Path.write_text and
    write_bytes, and open(...) or x.open(...) with a mode that is not a read
    mode.  A mode that is not a string literal counts as a write."""
    found = []

    def writes(call: ast.Call) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return isinstance(func, ast.Name) and func.id == "open" and opens_for_writing(call, 1)
        receiver = getattr(func.value, "id", None)
        if func.attr in ("write_text", "write_bytes") or (func.attr, receiver) == ("open", "os"):
            return True
        # io.open(file, mode) as the builtin; path.open(mode) otherwise
        return func.attr == "open" and opens_for_writing(call, 1 if receiver in ("io", "builtins") else 0)

    def visit(node):
        if isinstance(node, FUNCTIONS) and node.name == allowed:
            return
        if isinstance(node, ast.Call) and writes(node):
            found.append((node.lineno, node.col_offset, f"{path.name}:{node.lineno}: {ast.unparse(node)}"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return [text for *_, text in sorted(found)]


def opens_for_writing(call: ast.Call, mode_position: int) -> bool:
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > mode_position:
        mode = call.args[mode_position]
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_outputs_are_opened_only_by_the_output_opener():
    for path in sorted(PACKAGE.glob("*.py")):
        assert file_writes(path, OUTPUT_OPENER if path.name == "cli.py" else None) == []
    assert file_writes(PACKAGE / "cli.py", None)  # the opener's own calls are seen


def test_write_detection_sees_modes_and_ignores_strings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""mentions open(path, "w") only in words"""\n'
        "import io, os\n"
        "from pathlib import Path\n"
        "def read(path, mode):\n"
        "    open(path).read(), open(path, 'rb'), open('x.csv', encoding='utf-8')\n"
        "    Path(path).open(), Path(path).open('r'), io.open(path, mode='r')\n"
        "    return open(path, mode)\n"
        "def opener(path):\n"
        "    return os.open(path, os.O_WRONLY)\n"
        "open('x.csv', 'w'), io.open('y', mode='a+'), open('z', 'r+b')\n"
        "Path('z').open('x'), Path('z').write_text(''), Path('z').write_bytes(b'')\n"
    )
    assert file_writes(source, "opener") == [
        "sample.py:7: open(path, mode)",
        "sample.py:10: open('x.csv', 'w')",
        "sample.py:10: io.open('y', mode='a+')",
        "sample.py:10: open('z', 'r+b')",
        "sample.py:11: Path('z').open('x')",
        "sample.py:11: Path('z').write_text('')",
        "sample.py:11: Path('z').write_bytes(b'')",
    ]
    assert file_writes(source, None)[1] == "sample.py:9: os.open(path, os.O_WRONLY)"


# Every operator is built by symspace.floquet, from a rotation that
# _checked_rotation checked and rows that _unit_phases checked; slicing a stack
# shares those factors.  A UnitaryMatrix called anywhere else would hold
# factors that nothing checked.
OPERATOR_BUILDERS = {"floquet", "UnitaryMatrix.__getitem__"}


def operator_builds(path: Path, allowed: set[str]) -> list[str]:
    """'file:line: call' of each call UnitaryMatrix(...) or x.UnitaryMatrix(...)
    in the file, outside the functions and methods named in allowed
    ('function' or 'Class.method')."""
    found = []

    def visit(node, scope: str):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if scope in allowed:
                return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "UnitaryMatrix":
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_operators_are_built_only_by_floquet():
    for directory in ("src", "scripts", "bench", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            allowed = OPERATOR_BUILDERS if path == PACKAGE / "symspace.py" else set()
            assert operator_builds(path, allowed) == []
    assert len(operator_builds(PACKAGE / "symspace.py", set())) == 2  # the builders' own calls are seen


def test_operator_build_detection_sees_scopes_and_ignores_strings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""mentions UnitaryMatrix(base, phases) only in words"""\n'
        "from kickedtop import symspace\n"
        "from kickedtop.symspace import UnitaryMatrix\n"
        "def floquet(base, phases):\n"
        "    return UnitaryMatrix(base, phases)\n"
        "class UnitaryMatrix:\n"
        "    def __getitem__(self, index):\n"
        "        return UnitaryMatrix(self.base, self.phases[index])\n"
        "    def copy(self):\n"
        "        return UnitaryMatrix(self.base, self.phases)\n"
        "def test_direct(u):\n"
        "    return symspace.UnitaryMatrix(u.base, u.phases[None]), isinstance(u, UnitaryMatrix)\n"
    )
    assert operator_builds(source, OPERATOR_BUILDERS) == [
        "sample.py:10: UnitaryMatrix(self.base, self.phases)",
        "sample.py:12: symspace.UnitaryMatrix(u.base, u.phases[None])",
    ]
    assert len(operator_builds(source, set())) == 4


# Every trajectory in src/ is read through measures._trajectory_blocks, the
# one place that sets the block rule (multiples of lcm(4, b) kicks within a
# budget of amplitudes), so a row has the same bits and the states held stay
# bounded whichever reader asks: a second caller of symspace.trajectory would
# be a second loop with its own rule.
TRAJECTORY_READERS = {"_trajectory_blocks"}


def trajectory_calls(path: Path, allowed: set[str]) -> list[str]:
    """'file:line: call' of each call trajectory(...) or x.trajectory(...) in
    the file, outside the functions named in allowed."""
    found = []

    def visit(node):
        if isinstance(node, FUNCTIONS) and node.name in allowed:
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "trajectory":
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_trajectories_are_read_only_in_blocks():
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = TRAJECTORY_READERS if path == PACKAGE / "measures.py" else set()
        assert trajectory_calls(path, allowed) == []
    assert len(trajectory_calls(PACKAGE / "measures.py", set())) == 1  # the generator's own call is seen


def test_trajectory_call_detection_sees_aliases_and_ignores_strings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""mentions trajectory(u, psi0, n) only in words"""\n'
        "from kickedtop import symspace as ss\n"
        "from kickedtop.symspace import trajectory\n"
        "def _trajectory_blocks(u, starts, n):\n"
        "    yield trajectory(u, starts, n)\n"
        "def series(u, psi0, n):\n"
        "    return ss.trajectory(u, psi0, n), trajectory\n"
        "rows = [trajectory(u, p, 3) for p in ()]\n"
    )
    assert trajectory_calls(source, TRAJECTORY_READERS) == [
        "sample.py:7: ss.trajectory(u, psi0, n)",
        "sample.py:8: trajectory(u, p, 3)",
    ]
    assert len(trajectory_calls(source, set())) == 3
