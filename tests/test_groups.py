import itertools
import random

import pytest

from barhom.groups import CyclicGroup, DirectProduct, FreeGroup, SymmetricGroup, parse_group

GROUPS = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(3),
    CyclicGroup(7),
    SymmetricGroup(3),
    SymmetricGroup(4),
    DirectProduct(CyclicGroup(2), CyclicGroup(3)),
    DirectProduct(SymmetricGroup(3), CyclicGroup(4)),
    FreeGroup(3),
]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_group_axioms_on_samples(group):
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (group.sample(rng) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(group.identity, a) == a
        assert group.mul(a, group.identity) == a
        assert group.mul(a, group.inv(a)) == group.identity
        assert group.mul(group.inv(a), a) == group.identity


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_cyclic_has_n_elements(n):
    group = CyclicGroup(n)
    elems = list(group.elements())
    assert len(elems) == n
    assert len(set(elems)) == n


def test_symmetric_order():
    assert len(list(SymmetricGroup(4).elements())) == 24


def test_product_order():
    group = DirectProduct(CyclicGroup(2), SymmetricGroup(3))
    assert len(list(group.elements())) == 12
    assert len(set(group.elements())) == 12


def test_free_reduction():
    F = FreeGroup(2)
    a, b = F.gens()
    assert F.mul(a, F.inv(a)) == F.identity
    w = F.mul(F.mul(a, b), F.inv(b))
    assert w == a
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))
    # no adjacent letter-inverse pairs survive any product
    rng = random.Random(2)
    for _ in range(200):
        x, y = F.sample(rng), F.sample(rng)
        z = F.mul(x, y)
        assert all(z[i] != -z[i + 1] for i in range(len(z) - 1))


def test_parse_group():
    assert parse_group("cyclic5").n == 5
    assert parse_group("sym3").degree == 3
    assert parse_group("free2").rank == 2
    prod = parse_group("cyclic2*sym3")
    assert isinstance(prod, DirectProduct)
    with pytest.raises(ValueError):
        parse_group("dihedral8")


@pytest.mark.parametrize("factors", [
    (CyclicGroup(3), CyclicGroup(3), CyclicGroup(5)),   # the verification target over cyclic3
    (CyclicGroup(3), SymmetricGroup(3)),
], ids=lambda factors: "x".join(f.name for f in factors))
def test_direct_product_memo_is_the_factorwise_product(factors):
    group = DirectProduct(*factors)
    pairs = list(itertools.product(group.elements(), repeat=2))
    assert len(pairs) == len(list(group.elements())) ** 2
    for _ in range(2):   # the second pass reads the memo
        for a, b in pairs:
            assert group.mul(a, b) == tuple(f.mul(x, y) for f, x, y in zip(factors, a, b))
    assert len(group._products) == len(pairs)


def test_finite_flag():
    assert CyclicGroup(3).finite and SymmetricGroup(3).finite
    assert not FreeGroup(2).finite
    assert DirectProduct(CyclicGroup(2), SymmetricGroup(3)).finite
    assert not DirectProduct(CyclicGroup(2), FreeGroup(1)).finite
    assert not parse_group("cyclic2*free1").finite
