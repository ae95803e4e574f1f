"""Seeded random generation of elements, ideals and modules.

The generator is a 64-bit linear congruential generator with Knuth's
MMIX constants (multiplier 6364136223846793005, increment
1442695040888963407, modulus 2^64), so identical seeds reproduce
identical fixtures across runs and implementations.  Values are drawn
from the high 32 bits.
"""

from .algebra import ideal_from_generators
from .modules import (
    cokernel_of_presentation,
    generated_submodule,
)

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    def __init__(self, seed):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        # warm up so small seeds diverge immediately
        for _ in range(3):
            self._step()

    def _step(self):
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state >> 32

    def randint(self, n):
        """Uniform-ish integer in range(n)."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self._step() % n


def random_scalar(field, rng, spread=2):
    """A small scalar: integers in [-spread, spread] over Q, residues over F_p."""
    p = getattr(field, "p", None)
    if p is not None:
        return rng.randint(p)
    return field.of(rng.randint(2 * spread + 1) - spread)


def random_element(A, rng, spread=2):
    return tuple(random_scalar(A.field, rng, spread) for _ in range(A.dim))


def random_nonunit_element(A, rng, spread=2):
    """A random element of the maximal ideal."""
    v = list(random_element(A, rng, spread))
    v[0] = A.field.zero
    return tuple(v)


def random_ideal(A, rng, max_gens=2, allow_unit=False):
    ngens = 1 + rng.randint(max_gens)
    if allow_unit:
        gens = [random_element(A, rng) for _ in range(ngens)]
    else:
        gens = [random_nonunit_element(A, rng) for _ in range(ngens)]
    return ideal_from_generators(A, gens)


def random_module(A, rng, max_rank=2):
    """A random finite-length module: cokernel of a random presentation.

    R^t / (columns), t <= max_rank, with random relation columns; the
    dimension is bounded by t * dim(A).  The module is read off the
    multiplication table, as b_k * e_(s,m) = e_s (x) b_k*b_m (see
    :func:`cokernel_of_presentation`), so no free module is built.
    """
    t = 1 + rng.randint(max_rank)
    nrels = rng.randint(2 * t + 1)
    cols = []
    for _ in range(nrels):
        col = []
        for _ in range(t):
            col.extend(random_nonunit_element(A, rng))
        cols.append(tuple(col))
    return cokernel_of_presentation(A, t, cols)


def random_submodule(M, rng, max_gens=2):
    """A random submodule: closure of a few random vectors."""
    ngens = 1 + rng.randint(max_gens)
    vecs = [
        tuple(random_scalar(M.parent.field, rng) for _ in range(M.dim))
        for _ in range(ngens)
    ]
    return generated_submodule(M, vecs)
