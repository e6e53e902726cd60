"""Every function, class and method in `src/vqkit` (a dunder method aside) is
referenced in `src/vqkit`, and every defaulted parameter there, `__init__`'s
included, is passed by some `src/vqkit` call of its function's name: code that
only tests reach does not stay in the library. The documented API
(`vqkit.__all__`) may have no caller; `UNCALLED` names every other exception
and why it stands, and an entry that gains a caller must leave it."""
import ast
from pathlib import Path

import numpy as np

import vqkit

SRC = Path(vqkit.__file__).resolve().parent

# definition or "definition(parameter)" -> why it has no caller in src
UNCALLED = {
    "codebook.nearest_code": "acceptance criterion 06 states the quantized row through it",
    "metrics.activation_probability": "acceptance criterion 11 checks it against its closed form",
    "codebook.Codebook.load": "the reader of what Codebook.save writes",
    **{f"autodiff.Tape.{op}": "a Tape primitive that perfbench's trace pins by name, and "
                              "a finite-difference oracle"
       for op in ("mul", "relu", "sum", "stop_gradient", "slice_rows", "affine_rows")},
    "cli.main(argv)": "the console script calls main() bare; a Python caller passes argv",
}
# the documented API (`vqkit.__all__`), as "module.name", may or may not have a caller
API = {f"{obj.__module__.rsplit('.', 1)[-1]}.{name}" for name in vqkit.__all__
       if hasattr(obj := getattr(vqkit, name), "__module__")}


class Source:
    """The top-level functions, classes and methods of every module, with the
    references and calls that may reach each.

    A name reaches every top-level definition of that name, and an attribute
    every top-level definition and method of that name. An attribute whose
    name an ndarray also has (`sum`, `reshape`, `shape`) reaches a method only
    through a receiver of the method's class: `self` or `cls` in the class, the
    class itself, or a name annotated with the class or assigned from its
    constructor in the same function."""

    def __init__(self, root: Path):
        self.defs = {}        # key -> (FunctionDef or ClassDef, class name or None)
        self.trees = {}
        for path in sorted(root.glob("*.py")):
            module = path.stem
            tree = self.trees[module] = ast.parse(path.read_text(), str(path))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[f"{module}.{node.name}"] = (node, None)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.defs[f"{module}.{node.name}.{item.name}"] = (item, node.name)
        self.referenced, self.calls = set(), []   # calls: (ast.Call, keys it may reach)
        for tree in self.trees.values():
            self._walk(tree, None, {})

    def _walk(self, node, cls, typed):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            typed = {**typed, **_typed_names(node, cls)}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            self.referenced |= self.reach(node, cls, typed)
        if isinstance(node, ast.Call):
            self.calls.append((node, self.reach(node.func, cls, typed)))
        for child in ast.iter_child_nodes(node):
            self._walk(child, cls, typed)

    def reach(self, node, cls, typed) -> set:
        if isinstance(node, ast.Name):
            return {key for key, (d, owner) in self.defs.items()
                    if owner is None and d.name == node.id}
        if not isinstance(node, ast.Attribute):
            return set()
        receiver = node.value.id if isinstance(node.value, ast.Name) else None
        if receiver in ("self", "cls"):
            receiver = cls
        else:
            receiver = typed.get(receiver, receiver)
        return {key for key, (d, owner) in self.defs.items() if d.name == node.attr and (
            owner is None or not hasattr(np.ndarray, node.attr) or owner == receiver)}


def _typed_names(func: ast.FunctionDef, cls) -> dict:
    """name -> class name, for the parameters of `func` annotated with a class
    and the names it assigns from a class's constructor."""
    def class_name(expr):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Attribute):
            return expr.attr
        return expr.id if isinstance(expr, ast.Name) else None

    typed = {arg.arg: class_name(arg.annotation)
             for arg in func.args.args + func.args.kwonlyargs if arg.annotation}
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
            typed[node.targets[0].id] = class_name(node.value.func)
    return typed


def _defaulted(func: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter with a default."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    return ([(i, positional[i].arg) for i in range(first, len(positional))]
            + [(None, arg.arg) for arg, default in zip(func.args.kwonlyargs,
                                                       func.args.kw_defaults) if default])


def _passes(call: ast.Call, position, name: str, offset: int) -> bool:
    """Whether `call` passes the parameter `name` (at `position` of the
    signature, `offset` positions of which the call does not write)."""
    if any(kw.arg in (None, name) for kw in call.keywords):   # None: a ** argument
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position >= offset + i
    return position < offset + len(call.args)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _findings(source: Source) -> set:
    """The definitions with no reference and the defaulted parameters no call
    passes, as "module[.Class].name" and "module[.Class].name(parameter)"."""
    found = set()
    for key, (node, owner) in source.defs.items():
        if not _is_dunder(node.name) and key not in source.referenced:
            found.add(key)
            continue   # nothing calls it, so nothing passes its parameters
        if not isinstance(node, ast.FunctionDef) or (
                _is_dunder(node.name) and node.name != "__init__"):
            continue
        # a call of a class runs its __init__
        callee = key.rsplit(".", 1)[0] if node.name == "__init__" else key
        decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
        offset = 1 if owner is not None and "staticmethod" not in decorators else 0
        for position, name in _defaulted(node):
            if not any(callee in reached and _passes(call, position, name, offset)
                       for call, reached in source.calls):
                found.add(f"{key}({name})")
    return found


def test_every_definition_and_defaulted_parameter_has_a_caller_in_src():
    found = _findings(Source(SRC)) - API
    unexplained = sorted(found - set(UNCALLED))
    assert not unexplained, f"no caller in src/vqkit: {unexplained}"
    # an exception that gained a caller is no longer one
    stale = sorted(set(UNCALLED) - found)
    assert not stale, f"these now have a caller in src/vqkit; drop them from UNCALLED: {stale}"


def test_the_guard_sees_a_parameter_no_call_passes_and_a_definition_nothing_reaches(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "def used(x, k=1, *, flag=False):\n    return x\n"
        "def unused():\n    return 0\n"
        "class Box:\n"
        "    def __init__(self, size=3):\n        self.size = size\n"
        "    def sum(self):\n        return 0\n"
        "    def grow(self, by=1):\n        return self.size + by\n")
    (tmp_path / "b.py").write_text(
        "from a import Box, used\n"
        "def go(box: Box):\n"
        "    np.ones(2).sum()\n"
        "    used(1, 2)\n"
        "    b = Box(**{})\n"
        "    return b.grow(), go\n")
    assert _findings(Source(tmp_path)) == {
        "a.used(flag)", "a.unused", "a.Box.sum", "a.Box.grow(by)"}
