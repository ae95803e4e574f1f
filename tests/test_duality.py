from reference import find_isomorphism, multiply
from matlislab.duality import (
    annihilator_in_dual,
    evaluation_map,
    injective_cogenerator,
    matlis_dual,
)
from matlislab.modules import (
    generated_submodule,
    quotient_module,
    regular_module,
    residue_field_module,
    socle,
    radical,
)
from matlislab.randmod import Lcg, random_module, random_submodule


def test_cogenerator_certificate(r3, kxy, v2, r4):
    for fx in (r3, kxy, v2, r4):
        E = injective_cogenerator(fx.algebra)
        assert E.dim == fx.algebra.dim
        assert socle(E).dim == 1


def test_dual_preserves_dimension(r3):
    rng = Lcg(5)
    for _ in range(20):
        M = random_module(r3.algebra, rng)
        assert matlis_dual(M).dim == M.dim


def test_evaluation_is_isomorphism(kxy):
    rng = Lcg(6)
    for _ in range(10):
        M = random_module(kxy.algebra, rng)
        ev = evaluation_map(M)
        assert ev.rank() == ev.source.dim and ev.is_surjective()


def test_dual_swaps_socle_and_top(r3):
    R = regular_module(r3.algebra)
    E = matlis_dual(R)
    # dim of the socle of E = dim of the top of R
    assert socle(E).dim == R.dim - radical(R).dim


def test_annihilator_in_dual_complements(r3):
    A = r3.algebra
    rng = Lcg(9)
    for _ in range(10):
        M = random_module(A, rng)
        U = random_submodule(M, rng)
        D = annihilator_in_dual(M, U)
        assert D.dim == M.dim - U.dim


def test_double_annihilator_recovers_submodule(v2):
    rng = Lcg(12)
    for _ in range(10):
        M = random_module(v2.algebra, rng)
        U = random_submodule(M, rng)
        D = annihilator_in_dual(M, U)
        DD = annihilator_in_dual(matlis_dual(M), D)
        # the evaluation map is the identity matrix in these coordinates
        assert DD.basis_matrix == U.basis_matrix


def test_find_isomorphism_regular_vs_shifted(r3):
    A = r3.algebra
    R = regular_module(A)
    x = A.var_elements[0]
    Q1, _ = quotient_module(R, generated_submodule(R, [multiply(A, x, x)]))
    Q2, _ = quotient_module(R, generated_submodule(R, [multiply(A, x, x)]))
    f = find_isomorphism(Q1, Q2)
    assert f is not None and f.rank() == f.source.dim and f.is_surjective()


def test_find_isomorphism_rejects_mismatch(r3):
    R = regular_module(r3.algebra)
    k = residue_field_module(r3.algebra)
    assert find_isomorphism(R, k) is None


def test_self_dual_regular_over_chain_ring(r3):
    # k[x]/(x^3) is Gorenstein: E is isomorphic to R
    R = regular_module(r3.algebra)
    E = injective_cogenerator(r3.algebra)
    f = find_isomorphism(R, E)
    assert f is not None and f.rank() == f.source.dim and f.is_surjective()
