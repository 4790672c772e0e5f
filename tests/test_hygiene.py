"""Source hygiene: no module imports a name it never uses, no private function
or class in src/ goes unreferenced, only tensor.py touches the site-set
lookup caches, and no defaulted parameter in src/ goes unpassed."""

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
    files = [p for d in ("src", "tests", "demos") for p in sorted((ROOT / d).rglob("*.py"))
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
TENSOR_CACHES = {"_sorted", "_kernel_map", "_cell_map"}


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
    src = "t._cell_map = (h, m)\nx = t._sorted[0]\ny = t.sorted_keys()\n"
    assert cache_accesses(src) == [(1, "_cell_map"), (2, "_sorted")]


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


# Defaulted parameters that stay although no call in src/ or perfbench/ passes
# them: (callee, parameter) -> reason.
UNPASSED_ALLOWED = {
    ("main", "argv"): "the in-process entry point; the console script passes nothing",
}


def unpassed_defaults(defined: dict, callers: dict) -> list:
    """(file, line, callee, parameter) of each defaulted parameter of a
    function, method or class `__init__` in `defined` (file -> text) that no
    call in `callers` passes, by keyword or by enough positional arguments.
    The callee is the def's name, or the class name for an `__init__`.

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
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args, name = node.args, node.name
            positional = args.posonlyargs + args.args
            if id(node) in owner:
                if "staticmethod" not in (getattr(d, "id", None) for d in node.decorator_list):
                    positional = positional[1:]
                if name == "__init__":
                    name = owner[id(node)]
            first = len(positional) - len(args.defaults)
            params = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            params += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            for arg, i in params:
                if not any(splat or arg in kws or (i is not None and n > i)
                           for n, kws, splat in calls.get(name, [])):
                    found.append((path, node.lineno, name, arg))
    return sorted(found)


def test_every_defaulted_parameter_in_src_has_a_caller_that_sets_it():
    src = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    callers = dict(src, **{str(p.relative_to(ROOT)): p.read_text()
                           for p in sorted((ROOT / "perfbench").rglob("*.py"))})
    found = [f"{path}:{line}: {name}({arg}=)"
             for path, line, name, arg in unpassed_defaults(src, callers)
             if (name, arg) not in UNPASSED_ALLOWED]
    assert not found, ("defaulted parameters no call in src/ or perfbench/ passes "
                       "(use the default in their place):\n" + "\n".join(found))


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
