"""Seeded random generation of elements, ideals and modules.

The generator is a 64-bit linear congruential generator with Knuth's
MMIX constants (multiplier 6364136223846793005, increment
1442695040888963407, modulus 2^64), so identical seeds reproduce
identical fixtures across runs and implementations.  Values are drawn
from the high 32 bits.

A drawn module is one object per value, with its memos: random_module
keeps it in the algebra's _module_memo until suites.run_suite ends the
suite, or for the algebra's lifetime outside a suite.
"""

from . import linalg
from .algebra import ideal_from_generators
from .modules import _cokernel_of_echelon, generated_submodule

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    def __init__(self, seed):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        # warm up so small seeds diverge immediately
        for _ in range(3):
            self.randint(1)

    def randint(self, n):
        """Uniform-ish integer in range(n)."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        self.state = (self.state * _MULT + _INC) & _MASK
        return (self.state >> 32) % n


def _vectors(field, rng, count, length):
    """count lists of length small scalars, drawn as that many calls of
    rng.randint would draw them, in one loop that steps the generator
    state locally: integers in [-2, 2] over Q, residues over F_p."""
    p = getattr(field, "p", None)
    n, shift = (p, 0) if p is not None else (5, 2)
    state = rng.state
    flat = []
    for _ in range(count * length):
        state = (state * _MULT + _INC) & _MASK
        flat.append((state >> 32) % n - shift)
    rng.state = state
    return [flat[i * length:(i + 1) * length] for i in range(count)]


def random_ideal(A, rng):
    """The ideal of one or two random elements, units allowed."""
    return ideal_from_generators(A, _vectors(A.field, rng, 1 + rng.randint(2), A.dim))


def random_module(A, rng):
    """A random finite-length module: cokernel of a random presentation.

    R^t / (columns), t <= 2, with random relation columns, each slot a
    non-unit; the dimension is bounded by t * dim(A).  The module is
    read off the multiplication table (see cokernel_of_presentation),
    once per echelon form of the relations in a suite.
    """
    t = 1 + rng.randint(2)
    cols = _vectors(A.field, rng, rng.randint(2 * t + 1), t * A.dim)
    for c in cols:
        c[::A.dim] = [A.field.zero] * t
    red, pivots = linalg.span(A.left_cols, cols, A.field, t)
    key = ("cokernel", t, red)  # an actions key never starts with a str
    M = A._module_memo.get(key)
    if M is None:
        M = A._module_memo[key] = _cokernel_of_echelon(A, t, red, pivots)
    return M


def random_submodule(M, rng):
    """A random submodule: closure of one or two random vectors."""
    ngens = 1 + rng.randint(2)
    return generated_submodule(M, _vectors(M.parent.field, rng, ngens, M.dim))
