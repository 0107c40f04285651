import itertools
import random
from functools import reduce

import pytest

from barhom.groups import CyclicGroup, DirectProduct, FreeGroup, SymmetricGroup
from barhom.homotopy import MitosisTower, formal_context, instance_context
from barhom.moore import Chain, boundary, degeneracy, diameter
from barhom.quintuple import VerificationInstance
from barhom.shuffles import (
    DimensionMismatch,
    TensorChain,
    aw,
    ed_terms,
    edgewise,
    edgewise_composite,
    ez,
    mult_map,
    shuffle_places,
    shuffle_terms,
    shuffles,
    tensor_boundary,
    tensor_of_chains,
)

from test_homotopy import _decode, _decoded

C3 = CyclicGroup(3)
# a product simplex sigma x tau is a bar simplex of pairs over the product
C3xC3 = DirectProduct(C3, C3)


def pairs(sigma, tau):
    return tuple(zip(sigma, tau))


def fact(n):
    return reduce(lambda a, b: a * b, range(2, n + 1), 1)


def test_package_does_not_shadow_the_shuffles_module():
    import types

    import barhom.shuffles as module

    assert isinstance(module, types.ModuleType)
    assert module.shuffle_places is shuffle_places


def test_shuffle_counts():
    assert len(shuffles(0, 3)) == 1
    assert shuffles(0, 3)[0].sign == 1
    assert [s.sign for s in shuffles(1, 2)] == [1, -1, 1]
    # independent binomial oracle through factorials
    assert len(shuffles(3, 4)) == fact(7) // (fact(3) * fact(4))


def test_shuffle_blocks_ascend_and_dictionary_order():
    for p, q in [(2, 2), (3, 1), (2, 3)]:
        all_sh = shuffles(p, q)
        perms = [s.permutation for s in all_sh]
        assert perms == sorted(perms)
        for s in all_sh:
            assert list(s.first) == sorted(s.first)
            assert list(s.second) == sorted(s.second)
            assert sorted(s.permutation) == list(range(1, p + q + 1))


def test_shuffle_sign_is_permutation_sign():
    def brute_sign(perm):
        inv = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        return -1 if inv % 2 else 1

    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        for s in shuffles(p, q):
            assert s.sign == brute_sign(s.permutation)


def test_aw_examples():
    g, h = 1, 2
    tc = aw(Chain.of(pairs((g,), (h,))))
    assert tc == TensorChain(1, {((), (h,)): 1, ((g,), ()): 1})
    tc = aw(Chain.of(pairs((1, 2), (2, 2))))
    assert len(tc.terms) == 3


def test_tensor_chain_checks_total_degree():
    tc = TensorChain(3, {((1,), (1, 2)): 1})
    # a zero coefficient is checked too, as Chain.add_term checks it
    for coeff in (1, 0):
        with pytest.raises(DimensionMismatch):
            tc.add_term(((1,), (1,)), coeff)
    with pytest.raises(DimensionMismatch):
        TensorChain(2, {((1, 2), (1,)): 1})


def test_tensor_chain_never_equals_a_chain():
    tc = TensorChain(1, {((1,), ()): 1})
    chain = Chain(1)
    chain.terms.update(tc.terms)   # same dim, same dict
    assert tc != chain and chain != tc
    assert TensorChain(1) != Chain(1)
    assert tc == TensorChain(1, {((1,), ()): 1})


def test_aw_is_chain_map():
    # on 3-simplices the tau faces of the (2, 1) part cancel, so only dims 4
    # and 5 tell the Koszul sign (-1)^p from any other sign of p
    rng = random.Random(3)
    for dim in (3, 4, 5):
        for _ in range(20):
            sigma = tuple(C3.sample(rng) for _ in range(dim))
            tau = tuple(C3.sample(rng) for _ in range(dim))
            pc = Chain.of(pairs(sigma, tau))
            assert aw(boundary(C3xC3, pc)) == tensor_boundary(C3, aw(pc)), dim


def test_ez_examples():
    g, h = 1, 2
    pc = ez(C3, TensorChain(1, {((g,), ()): 1}))
    assert pc == Chain.of(pairs((g,), (0,)))
    pc = ez(C3, TensorChain(2, {((g,), (h,)): 1}))
    assert pc == Chain(
        2, {pairs((g, 0), (0, h)): 1, pairs((0, g), (h, 0)): -1}
    )


def test_ez_diameter_is_shuffle_count():
    rng = random.Random(4)
    nonid = [x for x in C3.elements() if x != 0]
    for p, q in itertools.product(range(4), repeat=2):
        sigma = tuple(rng.choice(nonid) for _ in range(p))
        tau = tuple(rng.choice(nonid) for _ in range(q))
        pc = ez(C3, TensorChain(p + q, {(sigma, tau): 1}))
        assert sum(abs(c) for c in pc.terms.values()) == fact(p + q) // (fact(p) * fact(q))


def test_ez_is_chain_map():
    rng = random.Random(5)
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        sigma = tuple(C3.sample(rng) for _ in range(p))
        tau = tuple(C3.sample(rng) for _ in range(q))
        tc = TensorChain(p + q, {(sigma, tau): 1})
        assert ez(C3, tensor_boundary(C3, tc)) == boundary(C3xC3, ez(C3, tc))


def test_ez_placement_matches_iterated_degeneracies():
    # independent oracle: inserting identities by applying degeneracy maps
    # at the second-block positions, smallest first, leaves the original
    # entries exactly at the first-block positions
    rng = random.Random(8)
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
        sigma = tuple(rng.randrange(1, 3) for _ in range(p))
        tau = tuple(rng.randrange(1, 3) for _ in range(q))
        pc = ez(C3, TensorChain(p + q, {(sigma, tau): 1}))
        for sh in shuffles(p, q):
            first = sigma
            for pos in sorted(sh.second):
                first = degeneracy(C3, pos - 1, first)
            second = tau
            for pos in sorted(sh.first):
                second = degeneracy(C3, pos - 1, second)
            assert pc.terms[pairs(first, second)] == sh.sign


def test_aw_slices_are_iterated_faces():
    # front faces d_(i+1) ... d_n drop last entries, back faces d_0^i drop
    # first entries; the slice implementation must agree
    from barhom.moore import face

    rng = random.Random(9)
    sigma = tuple(C3.sample(rng) for _ in range(4))
    tau = tuple(C3.sample(rng) for _ in range(4))
    tc = aw(Chain.of(pairs(sigma, tau)))
    for i in range(5):
        front = sigma
        for j in range(4, i, -1):
            front = face(C3, j, front)
        back = tau
        for _ in range(i):
            back = face(C3, 0, back)
        assert tc.terms[(front, back)] == 1


def test_mult_map_examples():
    pc = Chain.of(pairs((1,), (2,)))
    assert mult_map(C3, pc) == Chain.of((0,))
    pc = Chain.of(pairs((1, 0), (0, 2)))
    assert mult_map(C3, pc) == Chain.of((1, 2))


def test_mult_map_is_chain_map_abelian():
    rng = random.Random(6)
    for _ in range(20):
        pc = Chain(2)
        for _ in range(3):
            sigma = tuple(C3.sample(rng) for _ in range(2))
            tau = tuple(C3.sample(rng) for _ in range(2))
            pc.add_term(pairs(sigma, tau), rng.choice((1, -1)))
        assert mult_map(C3, boundary(C3xC3, pc)) == boundary(C3, mult_map(C3, pc))


def _formal(m):
    F = FreeGroup(m)
    ctx = formal_context(F)
    return F, ctx, ctx.entries


def test_edgewise_one_simplex():
    F, ctx, alg = _formal(1)
    quint = alg.algebra
    g1 = F.gens()[0]
    chain = edgewise(ctx.f, ctx.g, Chain.of((g1,)))
    assert _decoded(alg, chain) == Chain(1, {(quint.f(g1),): 1, (quint.g(g1),): 1})


def test_edgewise_two_simplex_display():
    F, ctx, alg = _formal(2)
    g1, g2 = F.gens()
    f, g = alg.algebra.f, alg.algebra.g
    expected = Chain(
        2,
        {
            (f(g1), f(g2)): 1,
            (f(g2), g(g1)): -1,
            (g(g1), f(g2)): 1,
            (g(g1), g(g2)): 1,
        },
    )
    assert _decoded(alg, edgewise(ctx.f, ctx.g, Chain.of((g1, g2)))) == expected


def test_edgewise_three_simplex_display():
    F, ctx, alg = _formal(3)
    g1, g2, g3 = F.gens()
    f, g = alg.algebra.f, alg.algebra.g
    expected_order = [
        (1, (f(g1), f(g2), f(g3))),
        (1, (g(g1), f(g2), f(g3))),
        (-1, (f(g2), g(g1), f(g3))),
        (1, (f(g2), f(g3), g(g1))),
        (1, (g(g1), g(g2), f(g3))),
        (-1, (g(g1), f(g3), g(g2))),
        (1, (f(g3), g(g1), g(g2))),
        (1, (g(g1), g(g2), g(g3))),
    ]
    got = [(sign, _decode(alg, simplex))
           for _p, _q, _rank, sign, simplex in ed_terms(ctx.f, ctx.g, (g1, g2, g3))]
    assert got == expected_order


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_edgewise_paths_agree_bit_exact(m):
    F, ctx, alg = _formal(m)
    sigma = Chain.of(tuple(F.gens()))
    assert edgewise(ctx.f, ctx.g, sigma) == edgewise_composite(alg, ctx.f, ctx.g, sigma)
    assert diameter(edgewise(ctx.f, ctx.g, sigma)) == 2**m
    # and in the tower's word algebra, for both pairs of maps
    tower = MitosisTower(F).context(m)
    for f, g in ((tower.f, tower.g), (tower.h, tower.k)):
        assert edgewise(f, g, sigma) == edgewise_composite(tower.entries, f, g, sigma)


@pytest.mark.parametrize("n", [2, 3])
def test_edgewise_is_chain_map_exhaustive(n):
    group = CyclicGroup(n)
    inst = VerificationInstance(group, 5)
    ctx = instance_context(inst)
    alg = ctx.entries
    for dim in range(1, 5):
        simplices = itertools.product(group.elements(), repeat=dim)
        sample = list(simplices) if n == 2 or dim <= 3 else []
        if not sample:
            rng = random.Random(dim)
            sample = [tuple(group.sample(rng) for _ in range(dim)) for _ in range(20)]
        for sigma in sample:
            lhs = boundary(alg, edgewise(ctx.f, ctx.g, Chain.of(sigma)))
            rhs = edgewise(ctx.f, ctx.g, boundary(group, Chain.of(sigma)))
            assert lhs == rhs


def test_edgewise_is_chain_map_symmetric_products():
    # f, g land in commuting coordinates of S3 x S3
    S3 = SymmetricGroup(3)
    H = DirectProduct(S3, S3)
    e = S3.identity
    f = lambda x: (x, e)
    g = lambda x: (e, x)
    rng = random.Random(11)
    for dim in range(1, 4):
        for _ in range(15):
            sigma = tuple(S3.sample(rng) for _ in range(dim))
            lhs = boundary(H, edgewise(f, g, Chain.of(sigma)))
            rhs = edgewise(f, g, boundary(S3, Chain.of(sigma)))
            assert lhs == rhs


def test_edgewise_diameter_bounded_on_concrete_groups():
    group = CyclicGroup(2)
    inst = VerificationInstance(group, 3)
    ctx = instance_context(inst)
    for sigma in itertools.product(group.elements(), repeat=3):
        assert diameter(edgewise(ctx.f, ctx.g, Chain.of(sigma))) <= 8


# -- the cached shuffle table and the fused product, against the oracle -----------


def test_shuffle_table_matches_itertools_oracle():
    # the lattice paths derived from these places are held to the pillar
    # scan by tests/test_homotopy.py::test_p_cylinder_data_matches_per_rank_terms
    for n in range(9):
        for p in range(n + 1):
            q = n - p
            signs, places = shuffle_places(p, q)
            oracle = shuffles(p, q)
            assert signs == tuple(sh.sign for sh in oracle)
            assert len(places) == len(oracle)
            for place, sh in zip(places, oracle):
                # slot pos - 1 holds the index of the source entry placed there
                slots = place(range(n))
                assert len(slots) == n
                assert tuple(pos for pos, i in enumerate(slots, start=1) if i < p) == sh.first
                assert tuple(pos for pos, i in enumerate(slots, start=1) if i >= p) == sh.second
                assert [i for i in slots if i < p] == list(range(p))
                assert [i for i in slots if i >= p] == list(range(p, n))


def test_shuffle_table_is_cached_and_checked():
    assert shuffle_places(3, 2) is shuffle_places(3, 2)
    with pytest.raises(ValueError):
        shuffle_places(-1, 2)
    with pytest.raises(ValueError):
        shuffle_places(2, -1)


def test_every_place_returns_a_tuple_for_any_source():
    # the one place of a (p, 0) or (0, q) table returns the source as a
    # tuple, for a tuple, bytes, str or range source of any length: a bare
    # itemgetter over fewer than two indices would return one entry, or
    # fail on none.  The (1, 1) places pick two entries, so return tuples
    for n in range(3):
        for source in (tuple(range(n)), bytes(range(n)), "ab"[:n], range(n)):
            for p in range(n + 1):
                for place in shuffle_places(p, n - p)[1]:
                    placed = place(source)
                    assert type(placed) is tuple and sorted(placed) == sorted(source)
                    assert placed == tuple(source) or 0 < p < n


def _oracle_product(alg, a, b):
    return mult_map(alg, ez(alg, tensor_of_chains(a, b)))


def _random_chain(rng, dim, pool):
    # a small pool of simplices makes placements collide and cancel
    chain = Chain(dim)
    for _ in range(rng.randrange(0, 5)):
        chain.add_term(rng.choice(pool), rng.choice((-2, -1, 1, 2)))
    return chain


def _sum_shuffle_terms(out, a, tau):
    out.add_terms(zip(*shuffle_terms(a, tau)[:2]))


def test_shuffle_terms_match_oracle_on_cyclic3():
    # summed through Chain.add_terms, as induct_Q sums them: the correction
    # is minus the product
    rng = random.Random(12)
    for p, q in itertools.product(range(4), repeat=2):
        pool_a = [tuple(C3.sample(rng) for _ in range(p)) for _ in range(3)]
        for _ in range(8):
            a, tau = _random_chain(rng, p, pool_a), tuple(C3.sample(rng) for _ in range(q))
            product = _oracle_product(C3, a, Chain.of(tau))
            expected = Chain(p + q)
            expected.add_chain(product, -1)
            out = Chain(p + q)
            _sum_shuffle_terms(out, a, tau)
            assert out == expected
            # in place on a nonzero chain
            start = _random_chain(rng, p + q, [tuple(C3.sample(rng) for _ in range(p + q))])
            out = Chain(p + q, dict(start.terms))
            _sum_shuffle_terms(out, a, tau)
            want = Chain(p + q, dict(start.terms))
            want.add_chain(expected)
            assert out == want
            # adding back what is there leaves zero
            out = Chain(p + q)
            out.add_chain(product)
            _sum_shuffle_terms(out, a, tau)
            assert out.is_zero()


def _raw_terms(a, tau):
    """-(a shuffle tau) term by term, through the itertools shuffles: sigma,
    then the shuffles in dictionary order."""
    out = []
    for sigma, ca in a:
        for sh in shuffles(a.dim, len(tau)):
            slots = [None] * (a.dim + len(tau))
            for pos, x in zip(sh.first + sh.second, sigma + tau):
                slots[pos - 1] = x
            out.append((tuple(slots), -sh.sign * ca))
    return out


def test_shuffle_terms_are_the_raw_terms_in_order():
    rng = random.Random(7)
    for p, q in itertools.product(range(4), repeat=2):
        pool_a = [tuple(C3.sample(rng) for _ in range(p)) for _ in range(3)]
        for _ in range(3):
            a, tau = _random_chain(rng, p, pool_a), tuple(C3.sample(rng) for _ in range(q))
            keys, coeffs, count = shuffle_terms(a, tau)
            terms = list(zip(keys, coeffs))
            assert terms == _raw_terms(a, tau)
            assert count == len(terms)
            # both streams are exhausted together
            assert next(keys, None) is None and next(coeffs, None) is None


