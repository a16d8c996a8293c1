"""archflow: integration, analysis, and portraits for the planar arch ridge flow."""

from .analysis import (
    ArchCategory,
    EigenPair,
    Equilibrium,
    SectorCensus,
    classify_arch,
    classify_linear,
    eigen_2x2,
    find_equilibria,
    opening_angle,
    sector_census,
    trace_separatrix,
)
from .integrate import (
    CrossingNotFound,
    IntegrationError,
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
from .systems import (
    ArchSystem,
    CallableField,
    Mat2,
    Point2,
    VectorField2D,
    Window,
    numeric_jacobian,
)

__version__ = "0.1.0"

__all__ = [
    "ArchCategory",
    "ArchSystem",
    "CallableField",
    "CrossingNotFound",
    "EigenPair",
    "Equilibrium",
    "IntegrationError",
    "IntegratorConfig",
    "Mat2",
    "Point2",
    "PortraitSpec",
    "Scene",
    "SectorCensus",
    "StyledPath",
    "Trajectory",
    "VectorField2D",
    "Window",
    "build_portrait",
    "classify_arch",
    "classify_linear",
    "crossing",
    "eigen_2x2",
    "export_trajectory_csv",
    "find_equilibria",
    "integrate",
    "numeric_jacobian",
    "opening_angle",
    "render_svg",
    "sector_census",
    "seed_points",
    "trace_separatrix",
    "__version__",
]
