"""Search for module isomorphisms, a helper for tests.

The search is randomized over Q and large F_p, so it certifies an
isomorphism when it finds one but proves nothing when it does not.
"""

from matlislab import linalg
from matlislab.modules import ModuleMap, hom_space
from matlislab.randmod import Lcg


def find_isomorphism(M, N, rng=None, tries=200):
    """Search Hom(M, N) for an invertible element.

    Returns a ModuleMap or None.  Over Q (and large F_p) failure means
    "no iso found by the documented search", not a proof of
    non-isomorphism; callers that need to distinguish should inspect
    :func:`iso_search_is_exhaustive`.
    """
    if M.dim != N.dim:
        return None
    if M.dim == 0:
        return ModuleMap(M, N, (), check=False)
    f = M.parent.field
    H = hom_space(M, N)
    for g in H.basis:
        if g.rank() == M.dim:
            return g
    if H.dim >= 2:
        p = getattr(f, "p", None)
        if p is not None and p ** H.dim <= 4096:
            for idx in range(1, p**H.dim):
                coeffs = []
                t = idx
                for _ in range(H.dim):
                    coeffs.append(t % p)
                    t //= p
                g = _combine(H, coeffs, f)
                if linalg.rank(g, f) == M.dim:
                    return ModuleMap(M, N, g, check=False)
        else:
            if rng is None:
                rng = Lcg(0)
            for _ in range(tries):
                coeffs = [f.of(rng.randint(5) - 2) for _ in range(H.dim)]
                g = _combine(H, coeffs, f)
                if linalg.rank(g, f) == M.dim:
                    return ModuleMap(M, N, g, check=False)
    return None


def iso_search_is_exhaustive(M, N):
    f = M.parent.field
    p = getattr(f, "p", None)
    if p is None:
        return False
    return p ** hom_space(M, N).dim <= 4096


def _combine(H, coeffs, f):
    n, m = H.target.dim, H.source.dim
    out = linalg.zeros(n, m, f)
    for c, g in zip(coeffs, H.basis):
        if c != f.zero:
            out = linalg.mat_add(out, linalg.mat_scale(c, g.matrix, f), f)
    return out
