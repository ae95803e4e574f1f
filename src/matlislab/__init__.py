"""Exact-arithmetic computations with trace and reject functors over
Artinian local k-algebras: Matlis duality, the classes of I-generated and
I-dual-cogenerated modules, Ext^1-based extension searches, and named
verification suites with deterministic reports.
"""

__version__ = "0.1.0"

from .algebra import Presentation, build_algebra, ideal_from_generators
from .classes import ClassContext, gamma, is_p_member, is_s_member, kappa
from .duality import injective_cogenerator, matlis_dual
from .fixtures import fixture_from_dict, parse_fixture
from .modules import FModule, ModuleMap, Submodule, regular_module
from .suites import run_suite

__all__ = [
    "ClassContext",
    "FModule",
    "ModuleMap",
    "Presentation",
    "Submodule",
    "build_algebra",
    "fixture_from_dict",
    "gamma",
    "ideal_from_generators",
    "injective_cogenerator",
    "is_p_member",
    "is_s_member",
    "kappa",
    "matlis_dual",
    "parse_fixture",
    "regular_module",
    "run_suite",
    "__version__",
]
