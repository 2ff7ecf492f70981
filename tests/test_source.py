"""Checks on the package's source text.

Every name a module imports is used in that module, so a change that
deletes the last caller of an imported name also deletes the import. An
import kept for another reason carries `# noqa: F401` and is listed here.
No module but kernels.py names the helper thread, so all two-thread work
goes through kernels._walk.
"""

import ast
from pathlib import Path

import streamline

SRC = Path(streamline.__file__).parent

# (module, name) of every import kept unused on purpose
KEPT = {
    ("core.py", "build_kernel"),  # perfbench/spans.py traces core.build_kernel
    ("baselines.py", "build_kernel"),  # perfbench/spans.py getattrs baselines.build_kernel
}


def test_no_module_imports_a_name_it_does_not_use():
    unused, marked = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's public names
            continue
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if noqa:
                    marked.add((path.name, name))
                elif name not in used:
                    unused.append(f"{path.name}: {name}")
    assert unused == []
    assert marked == KEPT


def test_only_kernels_names_the_helper_thread():
    naming = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if "_helper" in names:
            naming.append(path.name)
    assert naming == ["kernels.py"]
