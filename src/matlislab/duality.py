"""Matlis duality at finite length.

Over an Artinian local algebra the dual M -> Hom_R(M, E) of a
finite-length module is the k-linear dual with transposed actions, and E
itself is the dual of the regular module.  Defining E as R-dual removes
any injective-hull search: socle(R-dual) is one-dimensional, which is
exactly the hull certificate, and both have the same length.
"""

from . import linalg
from .errors import NotASubmodule
from .modules import FModule, ModuleMap, Submodule, regular_module


def matlis_dual(M):
    """The dual module: same dimension, transposed actions."""
    actions = [linalg.transpose(a) for a in M.actions]
    return FModule(M.parent, actions)


def injective_cogenerator(A):
    """E = dual of the regular module, the injective hull of k."""
    return matlis_dual(regular_module(A))


def evaluation_map(M):
    """The canonical map M -> M°°.

    In dual-basis coordinates the double dual carries the original
    actions back, so the matrix is the identity; at finite length this
    map is an isomorphism, which the constructor and one rank verify.
    """
    dd = matlis_dual(matlis_dual(M))
    mat = linalg.identity(M.dim, M.parent.field)
    ev = ModuleMap(M, dd, mat, check=True)
    if ev.rank() != M.dim:
        raise NotASubmodule("evaluation map is not an isomorphism")
    return ev


def annihilator_in_dual(M, U):
    """{f in M-dual | f(U) = 0}; dimension complements dim(U)."""
    if U.ambient != M:
        raise NotASubmodule("annihilator in dual needs a submodule of M")
    f = M.parent.field
    Md = matlis_dual(M)
    if U.dim == 0:
        return Md.full_submodule()
    return Submodule(Md, *linalg.kernel(U.basis_matrix, f))
