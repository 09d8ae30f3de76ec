"""Spatial signs, quantiles, depth and efficiency for functional data.

Curves live on weighted grids (funcspace); processes are simulated through
Karhunen-Loeve expansions (simulate); spatial distributions, u-quantiles,
depth, median-vs-mean efficiency and convergence-rate studies build on that
geometry (spatialdist, quantile, depth, efficiency, asymptotics). io and
cli handle CSV/JSON/SVG artifacts.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .asymptotics import (
    RateReport,
    ReferenceSpatialDist,
    bahadur_rate_study,
    gc_rate_study,
    integrated_error_study,
    probe_sample,
    reference_spatial_dist,
)
from .depth import DDPlotData, dd_plot, depth_profile, spatial_depth
from .efficiency import (
    EfficiencyReport,
    TableCell,
    TableRow,
    are,
    default_table_cells,
    domain_grid,
    efficiency_table,
    sigma_trace,
    v0_estimate,
)
from .errors import (
    ConditioningError,
    ConvergenceError,
    GridMismatchError,
    NotPSDError,
    ParseError,
    RankDeficiencyError,
    SpatialFDAError,
)
from .funcspace import (
    Basis,
    Coefficients,
    Curve,
    FunctionalSample,
    Grid,
    inner_product,
    mean_curve,
    norm,
    orthonormalize,
    pca,
    project,
    project_sample,
    reconstruct,
    total_variance,
)
from .io import read_sample, write_sample, write_table
from .parallel import max_threads, set_max_threads
from .quantile import (
    DirectionU,
    FanEntry,
    QuantileFan,
    QuantileSolution,
    WorkingSample,
    gradient,
    hessian,
    objective,
    quantile_fan,
    solve_quantile,
    working_sample,
)
from .simulate import (
    KernelSpec,
    ProcessSpec,
    bm_eigenpair,
    kernel_eigen,
    sample_blocks,
    sample_process,
    stream_seed,
)
from .spatialdist import (
    MonotonicityReport,
    SpatialDistValue,
    empirical_spatial_dist,
    monotonicity_probe,
    sgn_hilbert,
)
from .svg import curve_fan_svg, dd_plot_svg

__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
