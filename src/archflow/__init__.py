"""archflow: integration, analysis, and portraits for the planar arch ridge flow."""

from .analysis import (
    ArchCategory,
    EigenPair,
    Equilibrium,
    SectorCensus,
    classify_arch,
    find_equilibria,
    opening_angle,
    sector_census,
    trace_separatrix,
)
from .integrate import (
    CrossingNotFound,
    IntegratorConfig,
    Trajectory,
    crossing,
    integrate,
)
from .portrait import (
    PortraitSpec,
    Scene,
    StyledPath,
    build_portrait,
    export_trajectory_csv,
    render_svg,
    seed_points,
)
from .systems import ArchSystem, Mat2, Point2, Window

__version__ = "0.1.0"

__all__ = [
    "ArchCategory",
    "ArchSystem",
    "CrossingNotFound",
    "EigenPair",
    "Equilibrium",
    "IntegratorConfig",
    "Mat2",
    "Point2",
    "PortraitSpec",
    "Scene",
    "SectorCensus",
    "StyledPath",
    "Trajectory",
    "Window",
    "build_portrait",
    "classify_arch",
    "crossing",
    "export_trajectory_csv",
    "find_equilibria",
    "integrate",
    "opening_angle",
    "render_svg",
    "sector_census",
    "seed_points",
    "trace_separatrix",
    "__version__",
]
