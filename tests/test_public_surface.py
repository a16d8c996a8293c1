"""The names ``archflow`` exports; removing or adding one is a named edit here."""

import importlib

import archflow

PUBLIC = [
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
    "__version__",
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
]

RETIRED = [
    "CallableField",
    "DEFAULT_STYLE",
    "IntegrationError",
    "StepResult",
    "StepUnderflowError",
    "Vec2",
    "VectorField2D",
    "arch_first_integral",
    "arch_separatrix_height",
    "classify_linear",
    "eigen_2x2",
    "numeric_jacobian",
    "rk4_step",
    "rk45_step",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(archflow.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(archflow, name) is not None


def test_retired_names_are_gone():
    homes = ("analysis", "integrate", "portrait", "systems")
    modules = [archflow] + [importlib.import_module(f"archflow.{m}") for m in homes]
    for name in RETIRED:
        for module in modules:
            assert not hasattr(module, name)
