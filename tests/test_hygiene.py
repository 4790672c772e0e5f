"""Source hygiene: no module imports a name it never uses, no private function
or class in src/ goes unreferenced, only tensor.py touches the site-set
lookup caches, no module in src/ reaches another module's private names, and
no defaulted parameter or dataclass field in src/ goes unpassed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) of each import bound in `source` but never referenced.

    A name counts as used when it appears as an identifier or inside a string
    annotation; `__future__` imports are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [p for d in ("src", "tests", "demos", "tools") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_import_check_sees_names_and_annotations():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
           "def f(x: 'c') -> None:\n    return np.zeros(1)\n")
    assert unused_imports(src) == [(1, "os"), (3, "d")]


# SparseVoxelTensor's lookup caches: only tensor.py builds, reads or shares them.
TENSOR_CACHES = {"_kernel_map", "_cell_map"}


def cache_accesses(source: str) -> list:
    """(line, attribute) of each read or write of a TENSOR_CACHES attribute."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in TENSOR_CACHES)


def test_only_tensor_module_touches_lookup_caches():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert any(p.name == "tensor.py" for p in files)
    assert cache_accesses((ROOT / "src" / "virconv" / "tensor.py").read_text())
    found = [f"{p.relative_to(ROOT)}:{line}: .{attr}" for p in files if p.name != "tensor.py"
             for line, attr in cache_accesses(p.read_text())]
    assert not found, "lookup caches touched outside tensor.py:\n" + "\n".join(found)


def test_cache_access_check_sees_reads_and_writes():
    src = "t._cell_map = (h, m)\nx = t._kernel_map[0]\ny = t.sorted_keys()\n"
    assert cache_accesses(src) == [(1, "_cell_map"), (2, "_kernel_map")]


def unreferenced_private_defs(sources: dict) -> list:
    """(file, line, name) of each private (`_name`, not dunder) function or
    class defined in `sources` (file -> text) whose name no source uses as an
    identifier or attribute."""
    defs, used = [], set()
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((path, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(d for d in defs if d[2] not in used)


def test_every_private_definition_in_src_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in sorted((ROOT / "src").rglob("*.py"))}
    found = [f"{path}:{line}: {name}" for path, line, name in unreferenced_private_defs(sources)]
    assert not found, "private definitions nothing references:\n" + "\n".join(found)


def test_unreferenced_private_check_flags_a_planted_leftover():
    sources = {"a.py": ("def _used():\n    pass\n\n\nclass _Gone:\n    def _kept(self):\n"
                        "        pass\n\n    def __init__(self):\n        self._kept()\n\n\n"
                        "def _gone():\n    pass\n"),
               "b.py": "from a import _used\n_used()\n"}
    assert unreferenced_private_defs(sources) == [("a.py", 5, "_Gone"), ("a.py", 13, "_gone")]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_references(sources: dict) -> list:
    """(file, line, name) of each import of a private (`_name`, not dunder)
    name in `sources` (file -> text), and of each attribute access to a
    private name that another file defines and the accessing file does not.
    A file defines its top-level functions, classes and assignments, its
    classes' methods and class attributes, and the `self._x` it assigns."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    defined = {}
    for path, tree in trees.items():
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self"}
        bodies = [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]
        for stmt in (s for body in bodies for s in body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        defined[path] = set(filter(_private, names))
    found = []
    for path, tree in trees.items():
        foreign = set().union(*(d for p, d in defined.items() if p != path)) - defined[path]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [(path, node.lineno, a.name) for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Attribute) and node.attr in foreign:
                found.append((path, node.lineno, node.attr))
    return sorted(found)


def test_no_module_in_src_reaches_another_modules_private_names():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in sorted((ROOT / "src").rglob("*.py"))}
    assert "def _padded_keys(" in sources["src/virconv/tensor.py"]
    found = [f"{path}:{line}: {name}"
             for path, line, name in foreign_private_references(sources)]
    assert not found, "private names used outside their module:\n" + "\n".join(found)


def test_foreign_private_check_flags_planted_references():
    sources = {"a.py": ("_LIMIT = 3\n\n\ndef _key(x):\n    return x\n\n\nclass T:\n"
                        "    def _pairs(self):\n        self._cache = 1\n"),
               "b.py": ("from a import _key, T\nimport a\nt = T()\nt._pairs()\n"
                        "t._cache = a._LIMIT\n\n\nclass U:\n    def f(self):\n"
                        "        self._own = t._own\n")}
    assert foreign_private_references(sources) == [
        ("b.py", 1, "_key"), ("b.py", 4, "_pairs"), ("b.py", 5, "_LIMIT"), ("b.py", 5, "_cache")]


# Defaulted parameters and dataclass fields that stay although no call in src/
# or perfbench/ passes them: (callee, parameter) -> reason.
UNPASSED_ALLOWED = {
    ("main", "argv"): "the in-process entry point; the console script passes nothing",
    ("AugmentationRecord", "rotation_z"): "the augmentation-inverse criterion (c6) sets it",
    ("AugmentationRecord", "scale"): "the augmentation-inverse criterion (c6) sets it",
    ("AugmentationRecord", "flip_y"): "the augmentation-inverse criterion (c6) sets it",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_params(cls: ast.ClassDef) -> list:
    """(line, field, position, defaulted) of each `__init__` parameter that a
    @dataclass class body declares: annotated fields in order, without
    ClassVars and `field(init=False)`."""
    params = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)) \
                or "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value, defaulted = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        params.append((stmt.lineno, stmt.target.id, len(params), defaulted))
    return params


def unpassed_defaults(defined: dict, callers: dict) -> list:
    """(file, line, callee, parameter) of each defaulted parameter of a
    function, method or class `__init__` in `defined` (file -> text), and each
    defaulted field of a @dataclass there, that no call in `callers` passes,
    by keyword or by enough positional arguments. The callee is the def's
    name, or the class name for an `__init__` or a dataclass.

    Calls match by name: `f(...)` and `x.f(...)` call every def named f, and
    `C(...)` calls `C.__init__`. A call that splats `*args` or `**kwargs`
    passes everything. A method's first parameter is its receiver, unless it
    is a staticmethod.
    """
    calls = {}
    for text in callers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                splat = (any(isinstance(a, ast.Starred) for a in node.args)
                         or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, splat))
    found = []
    for path, text in defined.items():
        tree = ast.parse(text)
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                params = [(line, arg, i) for line, arg, i, defaulted in dataclass_params(node)
                          if defaulted]
                name = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args, name = node.args, node.name
                positional = args.posonlyargs + args.args
                if id(node) in owner:
                    if "staticmethod" not in (getattr(d, "id", None)
                                              for d in node.decorator_list):
                        positional = positional[1:]
                    if name == "__init__":
                        name = owner[id(node)]
                first = len(positional) - len(args.defaults)
                params = [(node.lineno, p.arg, i) for i, p in enumerate(positional)
                          if i >= first]
                params += [(node.lineno, p.arg, None)
                           for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            else:
                continue
            for line, arg, i in params:
                if not any(splat or arg in kws or (i is not None and n > i)
                           for n, kws, splat in calls.get(name, [])):
                    found.append((path, line, name, arg))
    return sorted(found)


def test_every_defaulted_parameter_in_src_has_a_caller_that_sets_it():
    src = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    callers = dict(src, **{str(p.relative_to(ROOT)): p.read_text()
                           for p in sorted((ROOT / "perfbench").rglob("*.py"))})
    found = [f"{path}:{line}: {name}({arg}=)"
             for path, line, name, arg in unpassed_defaults(src, callers)
             if (name, arg) not in UNPASSED_ALLOWED]
    assert not found, ("defaulted parameters and dataclass fields no call in src/ or "
                       "perfbench/ passes (use the default in their place, or "
                       "field(init=False) for a field set after construction):\n"
                       + "\n".join(found))


def test_unpassed_default_check_flags_a_planted_parameter():
    defined = {"a.py": ("def f(x, y=1, z=2, *, k=3, j=4):\n    pass\n\n\n"
                        "class C:\n    def __init__(self, a, b=0):\n        pass\n\n"
                        "    def m(self, c=0, d=0):\n        pass\n\n"
                        "    @staticmethod\n    def s(e=0, g=0):\n        pass\n")}
    callers = {"b.py": "f(0, 1)\nf(0, k=4)\nC(1)\nobj.m(5)\nC.s(1)\n",
               "c.py": "g(**opts)\n"}
    assert unpassed_defaults(defined, callers) == [
        ("a.py", 1, "f", "j"), ("a.py", 1, "f", "z"), ("a.py", 6, "C", "b"),
        ("a.py", 9, "m", "d"), ("a.py", 13, "s", "g")]
    callers["c.py"] = "C(*args)\n"
    assert ("a.py", 6, "C", "b") not in unpassed_defaults(defined, callers)


def test_unpassed_default_check_flags_a_planted_dataclass_field():
    defined = {"a.py": ("@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 0\n"
                        "    c: list = field(default_factory=list)\n"
                        "    d: int = field(init=False, default=0)\n    e: ClassVar[int] = 1\n"
                        "    f: int = field(default=2)\n    g: int = field()\n\n\n"
                        "@dataclasses.dataclass\nclass E:\n    h: int = 0\n\n\n"
                        "class Plain:\n    k: int = 0\n")}
    callers = {"b.py": "D(1, 2)\nD(0, f=3, g=4)\nPlain(k=1)\n"}
    assert unpassed_defaults(defined, callers) == [("a.py", 5, "D", "c"),
                                                   ("a.py", 14, "E", "h")]
    callers["b.py"] += "D(1, 2, [])\nE(**opts)\n"
    assert unpassed_defaults(defined, callers) == []
