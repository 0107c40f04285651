import itertools
import random

import pytest

from barhom.groups import CodedAlgebra, CyclicGroup, DirectProduct, FreeGroup, SymmetricGroup, parse_group

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
    with pytest.raises(ValueError, match="bad group spec: 'free0'"):
        parse_group("free0")
    # the degree cap admits sym9 and refuses sym10
    assert parse_group("sym9").degree == 9
    with pytest.raises(ValueError, match="^degree cap exceeded: 'sym10' has degree 10 > 9$"):
        parse_group("sym10")


@pytest.mark.parametrize("factors", [
    (CyclicGroup(3), CyclicGroup(3), CyclicGroup(5)),   # the verification target over cyclic3
    (CyclicGroup(3), SymmetricGroup(3)),
], ids=lambda factors: "x".join(f.name for f in factors))
def test_coded_product_table_is_the_factorwise_product(factors):
    group = DirectProduct(*factors)
    coded = CodedAlgebra(group)
    codes = [coded.code(x) for x in group.elements()]
    assert codes == list(range(len(codes)))   # the identity is coded first, as 0
    pairs = list(itertools.product(codes, repeat=2))
    for _ in range(2):   # the second pass reads the table
        for a, b in pairs:
            x, y = coded.elems[a], coded.elems[b]
            assert coded.elems[coded.mul(a, b)] == tuple(f.mul(u, v) for f, u, v in zip(factors, x, y))
    assert sum(map(len, coded.rows)) == len(pairs)


@pytest.mark.parametrize("group", [SymmetricGroup(3), FreeGroup(2)], ids=lambda g: g.name)
def test_coded_group_decodes_to_the_wrapped_group(group):
    # a free group is infinite: its elements are coded as they are met
    coded = CodedAlgebra(group)
    assert coded.elems[coded.identity] == group.identity
    rng = random.Random(0)
    for _ in range(50):
        a, b = coded.code(group.sample(rng)), coded.code(group.sample(rng))
        x, y = coded.elems[a], coded.elems[b]
        assert coded.elems[coded.mul(a, b)] == group.mul(x, y)
        assert coded.mul(a, coded.code(group.inv(x))) == coded.identity
        assert coded.entry_to_json(a) == group.entry_to_json(x)
    assert all(coded.codes[x] == c for c, x in enumerate(coded.elems))


def test_finite_flag():
    assert CyclicGroup(3).finite and SymmetricGroup(3).finite
    assert not FreeGroup(2).finite
    assert DirectProduct(CyclicGroup(2), SymmetricGroup(3)).finite
    assert not DirectProduct(CyclicGroup(2), FreeGroup(1)).finite
    assert not parse_group("cyclic2*free1").finite
