"""Source hygiene: no module imports a name it never uses, no private function
or class in src/ goes unreferenced, and only tensor.py touches the site-set
lookup caches."""

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
