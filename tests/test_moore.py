import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barhom.groups import CyclicGroup, DirectProduct, FreeGroup, SymmetricGroup
from barhom.homotopy import MitosisTower, formal_context, homotopy_P
from barhom.moore import (
    Chain,
    ChainError,
    EntryText,
    boundary,
    cellular_boundary,
    chain_payload,
    chain_to_json,
    count_degenerate,
    degeneracy,
    diameter,
    face,
    is_degenerate,
    project,
    term_sort_key,
)

C3 = CyclicGroup(3)


def simplex(*entries):
    return tuple(entries)


def random_chain(group, dim, rng, terms=4):
    chain = Chain(dim)
    for _ in range(terms):
        chain.add_term(tuple(group.sample(rng) for _ in range(dim)), rng.randrange(-3, 4) or 1)
    return chain


def test_face_examples():
    # d_0 drops the first entry, interior faces multiply, d_n drops the last
    assert face(C3, 0, (1, 2)) == (2,)
    assert face(C3, 1, (1, 2)) == (0,)   # 1+2 = 0 mod 3
    assert face(C3, 2, (1, 2)) == (1,)
    with pytest.raises(IndexError):
        face(C3, 3, (1, 2))
    with pytest.raises(IndexError):
        face(C3, 0, ())


def test_degeneracy_examples():
    assert degeneracy(C3, 0, (2,)) == (0, 2)
    assert degeneracy(C3, 1, (2,)) == (2, 0)
    assert face(C3, 1, degeneracy(C3, 0, (2,))) == (2,)
    with pytest.raises(IndexError):
        degeneracy(C3, 2, (2,))


@pytest.mark.parametrize("group", [C3, SymmetricGroup(3), DirectProduct(C3, C3)], ids=str)
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_simplicial_identities(group, dim):
    rng = random.Random(dim)
    for _ in range(10):
        sigma = tuple(group.sample(rng) for _ in range(dim))
        if dim >= 2:
            for j in range(dim + 1):
                for i in range(j):
                    assert face(group, i, face(group, j, sigma)) == face(
                        group, j - 1, face(group, i, sigma)
                    )
        for j in range(dim + 1):
            for i in range(j + 1):
                assert degeneracy(group, i, degeneracy(group, j, sigma)) == degeneracy(
                    group, j + 1, degeneracy(group, i, sigma)
                )
        for j in range(dim + 1):
            sj = degeneracy(group, j, sigma)
            assert face(group, j, sj) == sigma
            assert face(group, j + 1, sj) == sigma
            for i in range(dim + 2):
                if i < j:
                    assert face(group, i, sj) == degeneracy(group, j - 1, face(group, i, sigma))
                elif i > j + 1:
                    assert face(group, i, sj) == degeneracy(group, j, face(group, i - 1, sigma))


def test_boundary_examples():
    # d[g] = [] - [] = 0
    assert boundary(C3, Chain.of((1,))).is_zero()
    b = boundary(C3, Chain.of((1, 2)))
    assert b == Chain(1, {(2,): 1, (0,): -1, (1,): 1})
    assert boundary(C3, boundary(C3, Chain.of((1, 2, 2)))).is_zero()


@pytest.mark.parametrize("group", [C3, CyclicGroup(2), SymmetricGroup(3)], ids=str)
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_boundary_squared_zero(group, dim):
    rng = random.Random(dim * 7)
    for _ in range(5):
        chain = random_chain(group, dim, rng)
        assert boundary(group, boundary(group, chain)).is_zero()


def test_diameter():
    assert diameter(Chain(2)) == 0
    chain = Chain(1, {(1,): 2, (2,): -3})
    assert diameter(chain) == 5


def test_chain_dimension_guard():
    chain = Chain(2)
    with pytest.raises(ChainError):
        chain.add_term((1,), 1)
    with pytest.raises(ChainError):
        Chain(1, {(1,): 1}) + Chain(2, {(1, 2): 1})


def test_project_examples():
    assert project(C3, Chain.of((1, 0, 2))).is_zero()
    chain = Chain.of((1, 2))
    assert project(C3, chain) == chain


@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_project_is_chain_map_and_splits_l1(dim, seed):
    # the quotient complex carries the cellular boundary: faces of a
    # nondegenerate simplex can be degenerate and die under the projection
    rng = random.Random(seed)
    chain = random_chain(C3, dim, rng, terms=6)
    assert cellular_boundary(C3, project(C3, chain)) == project(C3, boundary(C3, chain))
    assert diameter(chain) == diameter(project(C3, chain)) + count_degenerate(C3, chain)


def test_projected_boundary_can_differ_from_moore_boundary():
    # d_1 [1,2] = [0] is degenerate although [1,2] is not; the Moore boundary
    # of the projection therefore differs from the projected boundary
    chain = Chain.of((1, 2))
    assert boundary(C3, project(C3, chain)) != project(C3, boundary(C3, chain))


def test_diameter_subadditive():
    rng = random.Random(9)
    for _ in range(30):
        a = random_chain(C3, 2, rng)
        b = random_chain(C3, 2, rng)
        assert diameter(a + b) <= diameter(a) + diameter(b)
    # exactly additive on disjoint supports
    a = Chain(1, {(1,): 2})
    b = Chain(1, {(2,): -1})
    assert diameter(a + b) == diameter(a) + diameter(b)


def test_count_degenerate():
    chain = Chain(2, {(1, 0): 2, (1, 2): 5, (0, 0): -1})
    assert count_degenerate(C3, chain) == 3
    assert is_degenerate(C3, (1, 0))
    assert not is_degenerate(C3, (1, 2))


def test_chain_json_deterministic():
    chain = Chain(2, {(2, 1): 1, (1, 2): -1})
    data = chain_to_json(C3, chain)
    assert data["dim"] == 2
    assert data["terms"] == [
        {"coeff": -1, "simplex": [1, 2]},
        {"coeff": 1, "simplex": [2, 1]},
    ]


def _group_chains(group):
    rng = random.Random(len(group.name))
    chains = []
    for dim in (1, 2, 3):
        chain = Chain(dim)
        for _ in range(12):
            # multi-digit and negative coefficients; repeated simplices merge
            chain.add_term(tuple(group.sample(rng) for _ in range(dim)), rng.randrange(-1500, 1500))
        chains.append((group, chain))
    return chains


def _quintuple_chains():
    # cylinder homotopies over formal letters: dicts with "m": null and without
    free = FreeGroup(3)
    ctx = formal_context(free)
    return [(ctx.entries, homotopy_P(ctx, tuple(free.gen(i + 1) for i in range(dim))))
            for dim in (0, 1, 2, 3)]


def _tower_chains():
    free = FreeGroup(3)
    tower = MitosisTower(free)
    return [(tower.algebra, tower.psi(3, tuple(free.gen(i + 1) for i in range(dim))))
            for dim in (0, 1, 2, 3)]


ALGEBRAS = {
    "cyclic3": lambda: _group_chains(C3),
    "cyclic15": lambda: _group_chains(CyclicGroup(15)),   # entry "1" is a prefix of "12"
    "sym3": lambda: _group_chains(SymmetricGroup(3)),
    "cyclic3*sym3": lambda: _group_chains(DirectProduct(C3, SymmetricGroup(3))),
    "quintuple": _quintuple_chains,
    "tower": _tower_chains,
}

HEADS = [
    {},
    # keys on both sides of "chain", and a nested "chain" key
    {"artifacts": [1, {"chain": None}], "dim": 3, "op": "psi", "schema": "barhom/1",
     "summary": {"diameter": 24, "expected_q": 8}},
]


def _edge_chains(alg, sample):
    """The empty chain in dim 0 and dim 2, and dim-0 chains on the empty simplex."""
    return [Chain(0), Chain(2), Chain(0, {(): 1}), Chain(0, {(): -12}),
            Chain(1, {(sample,): -7, (alg.identity,): 30})]


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_chain_payload_matches_chain_to_json(name):
    cases = ALGEBRAS[name]()
    alg = cases[-1][0]
    sample = next(entry for _, chain in cases for simplex in chain.terms for entry in simplex)
    chains = [chain for _, chain in cases] + _edge_chains(alg, sample)
    assert any(len(chain) > 1 for chain in chains)
    for chain in chains:
        for head in HEADS:
            want = json.dumps({**head, "chain": chain_to_json(alg, chain)}, indent=2, sort_keys=True)
            assert "".join(chain_payload(alg, head, chain)) == want


def test_chain_payload_keeps_the_order_of_ties():
    # two simplices with equal JSON: the stable sort keeps insertion order
    class Labelled:
        identity = "e"

        def entry_to_json(self, entry):
            return entry[0]

    alg = Labelled()
    for terms in ({(("a", 1),): 1, (("a", 2),): 2}, {(("a", 2),): 2, (("a", 1),): 1}):
        chain = Chain(1, terms)
        want = json.dumps({"chain": chain_to_json(alg, chain)}, indent=2, sort_keys=True)
        assert "".join(chain_payload(alg, {}, chain)) == want


def test_entry_text_compact_is_the_sort_key():
    free = FreeGroup(3)
    tower = MitosisTower(free)
    chain = tower.psi(3, (free.gen(1), free.gen(2), free.gen(3)))
    text = EntryText(tower.algebra)
    for simplex in chain.terms:
        assert text.compact(simplex) == term_sort_key(tower.algebra, simplex)
    assert len(text) < len(chain)


def test_chain_payload_serializes_before_returning():
    class Unserializable:
        identity = 0

        def entry_to_json(self, entry):
            raise RuntimeError("no JSON")

    with pytest.raises(RuntimeError):
        chain_payload(Unserializable(), {}, Chain.of((1, 2)))
