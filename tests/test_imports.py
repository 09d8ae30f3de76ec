"""Which private names one spatialfda module may import from another."""

import ast
import types
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


def test_star_import_binds_no_module():
    # `from spatialfda import *` must not bind io over the standard library's io
    names = {}
    exec("from spatialfda import *", names)
    assert [n for n in spatialfda.__all__ if isinstance(getattr(spatialfda, n), types.ModuleType)] == []
    del names["__builtins__"]  # added by exec
    assert [n for n, v in names.items() if isinstance(v, types.ModuleType)] == []


# The deprecated public names. Grid.matches is deprecated as an attribute
# only; project and project_sample only with their d argument.
DEPRECATED = {
    "sgn_lp",
    "empirical_spatial_dist_lp",
    "bahadur_residual",
    "BahadurReport",
    "real_line_grid",
    "matches",
}
TRUNCATING = {"project", "project_sample"}
ROOT = Path(__file__).resolve().parents[1]


def deprecated_references(tree, reexports=False):
    """(line, name) of each use of a deprecated name in tree.

    A deprecated definition's own code is skipped, and so, when reexports,
    is a from-import (the package's __init__ re-exporting the name).
    """
    found = set()

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in DEPRECATED:
            return
        if isinstance(node, ast.Name) and node.id in DEPRECATED - {"matches"}:
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in DEPRECATED:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and not reexports:
            found.update((node.lineno, a.name) for a in node.names if a.name in DEPRECATED)
        elif isinstance(node, ast.Call):
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            passes_d = len(node.args) > 2 or any(k.arg == "d" for k in node.keywords)
            if func in TRUNCATING and passes_d:
                found.add((node.lineno, f"{func}(d)"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_the_guard_sees_every_form_of_use():
    code = (
        "from spatialfda import sgn_lp\n"
        "spatialfda.real_line_grid(1)\n"
        "g.matches(h)\n"
        "project_sample(s, b, 3)\n"
        "quantile.project(x, b, d=2)\n"
        "project(x, b)\n"
        "def bahadur_residual():\n"
        "    return BahadurReport()\n"
    )
    assert deprecated_references(ast.parse(code)) == {
        (1, "sgn_lp"),
        (2, "real_line_grid"),
        (3, "matches"),
        (4, "project_sample(d)"),
        (5, "project(d)"),
    }


def test_nothing_outside_the_deprecated_names_uses_them():
    paths = [*Path(spatialfda.__file__).parent.glob("*.py")]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert len(paths) > 20
    found = {
        (path.name, *ref)
        for path in paths
        for ref in deprecated_references(ast.parse(path.read_text()), path.name == "__init__.py")
    }
    assert found == set()


def test_public_surface_is_pinned():
    # any change to the public API, such as removing the deprecated names,
    # is a deliberate edit of this list
    assert sorted(spatialfda.__all__) == [
        "BahadurReport", "Basis", "Coefficients", "ConditioningError", "ConvergenceError",
        "Curve", "DDPlotData", "DirectionU", "EfficiencyReport", "FanEntry",
        "FunctionalSample", "Grid", "GridMismatchError", "KernelSpec", "MonotonicityReport",
        "NotPSDError", "ParseError", "ProcessSpec", "QuantileFan", "QuantileSolution",
        "RankDeficiencyError", "RateReport", "ReferenceSpatialDist", "SpatialDistValue",
        "SpatialFDAError", "TableCell", "TableRow", "WorkingSample", "are",
        "bahadur_rate_study", "bahadur_residual", "bm_eigenpair", "curve_fan_svg", "dd_plot",
        "dd_plot_svg", "default_table_cells", "depth_profile", "domain_grid",
        "efficiency_table", "empirical_spatial_dist", "empirical_spatial_dist_lp",
        "gc_rate_study", "gradient", "hessian", "inner_product", "integrated_error_study",
        "kernel_eigen", "max_threads", "mean_curve", "monotonicity_probe", "norm", "objective",
        "orthonormalize", "pca", "probe_sample", "project", "project_sample", "quantile_fan",
        "read_sample", "real_line_grid", "reconstruct", "reference_spatial_dist",
        "sample_blocks", "sample_process", "set_max_threads", "sgn_hilbert", "sgn_lp",
        "sigma_trace", "solve_quantile", "spatial_depth", "stream_seed", "total_variance",
        "v0_estimate", "working_sample", "write_sample", "write_table",
    ]  # fmt: skip
