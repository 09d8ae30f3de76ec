"""Which private names one spatialfda module may import from another."""

import ast
import inspect
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
    # scheduling; a pool would bring back a second code path. The one
    # exception is the two workers of simulate.coefficient_runs, the one
    # draw route (sample_process, sample_blocks, the rate studies and the
    # efficiency study), whose chunks each have their own substream and,
    # while drawn, their own buffer
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
    assert found == {("simulate", "concurrent.futures")}


def test_star_import_binds_no_module():
    # `from spatialfda import *` must not bind io over the standard library's io
    names = {}
    exec("from spatialfda import *", names)
    assert [n for n in spatialfda.__all__ if isinstance(getattr(spatialfda, n), types.ModuleType)] == []
    del names["__builtins__"]  # added by exec
    assert [n for n, v in names.items() if isinstance(v, types.ModuleType)] == []


def test_removed_names_stay_removed():
    # they duplicated a more general path; the README names what to use instead
    from spatialfda import efficiency, funcspace, quantile, spatialdist

    assert not hasattr(spatialfda.Grid, "matches")
    assert list(inspect.signature(spatialfda.project).parameters) == ["x", "basis"]
    assert list(inspect.signature(spatialfda.project_sample).parameters) == ["sample", "basis"]
    removed = {
        "sgn_lp",
        "_sgn_lp",
        "empirical_spatial_dist_lp",
        "bahadur_residual",
        "BahadurReport",
        "real_line_grid",
    }
    modules = (spatialfda, efficiency, funcspace, quantile, spatialdist)
    assert {(m.__name__, n) for m in modules for n in removed if hasattr(m, n)} == set()


def test_public_surface_is_pinned():
    # any change to the public API is a deliberate edit of this list
    assert sorted(spatialfda.__all__) == [
        "Basis", "Coefficients", "ConditioningError", "ConvergenceError", "Curve", "DDPlotData",
        "DirectionU", "EfficiencyReport", "FanEntry", "FunctionalSample", "Grid",
        "GridMismatchError", "KernelSpec", "MonotonicityReport", "NotPSDError", "ParseError",
        "ProcessSpec", "QuantileFan", "QuantileSolution", "RankDeficiencyError", "RateReport",
        "ReferenceSpatialDist", "SpatialDistValue", "SpatialFDAError", "TableCell", "TableRow",
        "WorkingSample", "are", "bahadur_rate_study", "bm_eigenpair", "curve_fan_svg",
        "dd_plot", "dd_plot_svg", "default_table_cells", "depth_profile", "domain_grid",
        "efficiency_table", "empirical_spatial_dist", "gc_rate_study", "gradient", "hessian",
        "inner_product", "integrated_error_study", "kernel_eigen", "max_threads", "mean_curve",
        "monotonicity_probe", "norm", "objective", "orthonormalize", "pca", "probe_sample",
        "project", "project_sample", "quantile_fan", "read_sample", "reconstruct",
        "reference_spatial_dist", "sample_blocks", "sample_process", "set_max_threads",
        "sgn_hilbert", "sigma_trace", "solve_quantile", "spatial_depth", "stream_seed",
        "total_variance", "v0_estimate", "working_sample", "write_sample", "write_table",
    ]  # fmt: skip
