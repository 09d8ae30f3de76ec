"""Which private names one spatialfda module may import from another."""

import ast
from pathlib import Path

import spatialfda

# The sign kernel and the KL step have no public entry point at the shape
# these callers need. Everything else goes through public names.
ALLOWED = {
    ("depth", "_sign_mean"),
    ("asymptotics", "_sign_mean"),
    ("efficiency", "_kl_system"),
}


def private_imports():
    found = set()
    for path in Path(spatialfda.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("spatialfda"):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.add((path.stem, alias.name))
    return found


def test_only_pinned_private_names_cross_modules():
    assert private_imports() == ALLOWED


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module uses what it imports
    unused = set()
    for path in Path(spatialfda.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused |= {(path.stem, name) for name in bound if name not in used}
    assert unused == set()


def test_no_module_starts_threads_or_processes():
    # every loop runs on the calling thread, so outputs cannot depend on
    # scheduling; a pool would bring back a second code path
    banned = {"concurrent", "threading", "multiprocessing"}
    found = set()
    for path in Path(spatialfda.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found |= {(path.stem, n) for n in names if n.split(".")[0] in banned}
    assert found == set()
