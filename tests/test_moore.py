import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barhom import moore
from barhom.groups import CyclicGroup, DirectProduct, FreeGroup, SymmetricGroup
from barhom.homotopy import MitosisTower, formal_context, homotopy_P, instance_context
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
from barhom.quintuple import VerificationInstance
from barhom.shuffles import TensorChain

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


# -- the boundary kernel against sum_i (-1)^i d_i through add_term ----------------


def reference_boundary(alg, chain):
    """The definition: every face through ``face`` and ``add_term``."""
    if chain.dim == 0:
        return Chain(0)
    out = Chain(chain.dim - 1)
    for simplex, coeff in chain:
        sign = 1
        for i in range(chain.dim + 1):
            out.add_term(face(alg, i, simplex), sign * coeff)
            sign = -sign
    return out


def _same_terms_in_order(got, want):
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())


def _random_chains(group, rng, pool=None):
    """Dims 0-4, many terms over a small pool of entries: faces collide and
    cancel, and identity entries make degenerate simplices and faces."""
    pool = pool or [group.identity] + [group.sample(rng) for _ in range(3)]
    chains = []
    for dim in (0, 1, 2, 2, 3, 4):
        chain = Chain(dim)
        for _ in range(12):
            chain.add_term(tuple(rng.choice(pool) for _ in range(dim)), rng.choice((-2, -1, 1, 2)))
        chains.append(chain)
    return chains


def _construction_chains(alg, chains):
    """Sums of construction chains that share terms, and their boundaries."""
    out = list(chains)
    for a, b in zip(chains, chains[1:]):
        if a.dim == b.dim:
            total = Chain(a.dim)
            total.add_chain(a)
            total.add_chain(b, -2)
            total.add_chain(a)
            out.append(total)
    return out + [reference_boundary(alg, c) for c in chains]


def _group_kernel_cases(group):
    return group, _random_chains(group, random.Random(len(group.name)))


def _instance_kernel_cases():
    ctx = instance_context(VerificationInstance(C3, 5))
    alg = ctx.entries
    rng = random.Random(45)
    P = [homotopy_P(ctx, tuple(rng.randrange(3) for _ in range(dim)))
         for dim in (0, 1, 1, 2, 2, 3, 3)]
    pool = [alg.identity, ctx.m(ctx.source.identity), ctx.m(1), ctx.f(2), ctx.h(1)]
    return alg, _random_chains(alg, rng, pool) + _construction_chains(alg, P)


def _quintuple_kernel_cases():
    free = FreeGroup(3)
    ctx = formal_context(free)
    a, b, c = free.gens()
    sigmas = [(), (a,), (b,), (a, b), (a, free.inv(a)), (a, b), (b, a), (a, b, c), (a, a, b)]
    P = [homotopy_P(ctx, sigma) for sigma in sigmas]
    return ctx.entries, _construction_chains(ctx.entries, P)


def _tower_kernel_cases():
    free = FreeGroup(3)
    tower = MitosisTower(free)
    a, b, c = free.gens()
    psis = [tower.psi(level, sigma) for level, sigma in
            [(1, ()), (1, (a,)), (2, (b,)), (2, (a, b)), (2, (b, a)), (3, (a, b, c)), (3, (c, b, a))]]
    return tower.algebra, _construction_chains(tower.algebra, psis)


KERNEL_CASES = {
    "cyclic3": lambda: _group_kernel_cases(C3),
    "sym3": lambda: _group_kernel_cases(SymmetricGroup(3)),
    "instance[cyclic3,5]": _instance_kernel_cases,
    "quintuple[free3]": _quintuple_kernel_cases,
    "tower[free3]": _tower_kernel_cases,
}


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_boundary_kernel_matches_the_face_sum(name):
    alg, chains = KERNEL_CASES[name]()
    assert {chain.dim for chain in chains} >= {0, 1, 2}
    collided = 0
    for chain in chains:
        want = reference_boundary(alg, chain)
        _same_terms_in_order(boundary(alg, chain), want)
        collided += len(want) < len(chain) * (chain.dim + 1)
    assert collided, "no case where faces met"


def test_boundary_kernel_orders_a_re_added_face_last():
    # the faces (2), (0), (1) of the first simplex all cancel against the
    # second and are popped; the third adds (1) before (2).  A kernel that
    # kept the zeros in place would list (2) first, and one that kept zeros
    # at all would also return (0): 0
    chain = Chain(2, {(1, 2): 1, (2, 1): -1, (1, 1): 1})
    want = Chain(1)
    want.terms.update({(1,): 2, (2,): -1})
    got = boundary(C3, chain)
    _same_terms_in_order(got, want)
    _same_terms_in_order(got, reference_boundary(C3, chain))
    # d of a 1-simplex cancels to the zero 0-chain, and d of a 0-chain is zero
    _same_terms_in_order(boundary(C3, Chain(1, {(1,): 3, (2,): -1})), Chain(0))
    _same_terms_in_order(boundary(C3, Chain(0, {(): 4})), Chain(0))


def _chain_of_size(pool, dim, size, rng):
    """A dim-chain over the pool with ``size`` terms, or with every simplex
    over the pool if there are fewer."""
    chain = Chain(dim)
    while len(chain) < min(size, len(pool) ** dim):
        chain.add_term(tuple(rng.choice(pool) for _ in range(dim)), rng.choice((-2, -1, 1, 2)))
    return chain


def _instance_pool():
    ctx = instance_context(VerificationInstance(C3, 5))
    return ctx.entries, [ctx.entries.identity, ctx.m(0), ctx.m(1), ctx.f(2), ctx.h(1)]


SMALL_PATH_CASES = {
    "cyclic3": lambda: (C3, list(C3.elements())),
    "sym3": lambda: (SymmetricGroup(3), list(SymmetricGroup(3).elements())),
    "instance[cyclic3,5]": _instance_pool,
}


@pytest.mark.parametrize("name", list(SMALL_PATH_CASES))
def test_small_chain_path_equals_the_column_path(name, monkeypatch):
    # chains of 1-12 terms in dims 0-6, each through the per-simplex path,
    # the column path and the shipped threshold, whichever path that picks
    alg, pool = SMALL_PATH_CASES[name]()
    threshold, sizes, rng = moore.SMALL_CHAIN, set(), random.Random(7)
    for dim in range(7):
        for size in range(1, 13):
            chain = _chain_of_size(pool, dim, size, rng)
            sizes.add(len(chain))
            want = reference_boundary(alg, chain)
            for limit in (len(chain) + 1, len(chain), threshold):
                monkeypatch.setattr(moore, "SMALL_CHAIN", limit)
                _same_terms_in_order(moore.boundary(alg, chain), want)
    # the cases straddle the shipped threshold
    assert sizes == set(range(1, 13)) and 1 < threshold <= 12


def test_chain_sum_keeps_the_order_of_add_term():
    rng = random.Random(11)
    for _ in range(20):
        a, b = _random_chains(C3, rng)[2:4]
        for sign in (1, -1):
            got = Chain(a.dim)
            got.add_chain(a)
            got.add_chain(b, sign)
            want = Chain(a.dim)
            for simplex, coeff in a:
                want.add_term(simplex, coeff)
            for simplex, coeff in b:
                want.add_term(simplex, sign * coeff)
            _same_terms_in_order(got, want)
        total = Chain(a.dim)
        total.add_chain(a, 3)
        total.add_chain(b, -2)
        assert total == Chain(a.dim, [(s, 3 * c) for s, c in a] + [(s, -2 * c) for s, c in b])
    for scale in (1, -1):
        got = Chain(a.dim, a)
        got.add_chain(Chain(a.dim), scale)
        assert got == a
    zero = Chain(4)
    zero.add_chain(Chain(1))
    assert zero == Chain(4)
    with pytest.raises(ChainError):
        Chain(1).add_chain(Chain(2, {(1, 2): 1}))


# -- the one accumulation loop against add_term, pair by pair -----------------------


# every event after the start {(2,): 1}: (1,) repeats and cancels, is added
# again, and zeros land on a live key and on an absent one
EVERY_EVENT = ([((2,), 1)],
               [((1,), 2), ((2,), 0), ((1,), -2), ((0,), 0), ((1,), 3), ((2,), 1), ((0,), -1)])

_pairs = st.lists(st.tuples(st.tuples(st.integers(0, 3)), st.integers(-3, 3)), max_size=30)


def _listed_sum(pairs):
    """The rule on a list of [simplex, coeff] rows: a zero sum deletes its
    row, and a simplex without a row is appended."""
    rows = []
    for simplex, coeff in pairs:
        row = next((row for row in rows if row[0] == simplex), None)
        if row is None:
            if coeff:
                rows.append([simplex, coeff])
        elif row[1] + coeff:
            row[1] += coeff
        else:
            rows.remove(row)
    return [tuple(row) for row in rows]


@given(_pairs, _pairs)
@example(*EVERY_EVENT)
@settings(max_examples=200, deadline=None)
def test_add_terms_equals_folding_add_term(start, pairs):
    # the same terms in the same order, from a chain that add_term built;
    # add_term hands its pair to add_terms, so the list model checks the rule.
    # A TensorChain sums the same pairs, keyed as ((), simplex), the same way
    tensor = lambda items: [(((), simplex), coeff) for simplex, coeff in items]
    for cls, start, pairs in ((Chain, start, pairs), (TensorChain, tensor(start), tensor(pairs))):
        want = cls(1, start)
        for simplex, coeff in pairs:
            want.add_term(simplex, coeff)
        got = cls(1, start)
        got.add_terms(iter(pairs))
        _same_terms_in_order(got, want)
        assert list(got.terms.items()) == _listed_sum(start + pairs)


def test_diameter():
    assert diameter(Chain(2)) == 0
    chain = Chain(1, {(1,): 2, (2,): -3})
    assert diameter(chain) == 5


def test_chain_dimension_guard():
    chain = Chain(2)
    with pytest.raises(ChainError):
        chain.add_term((1,), 1)
    with pytest.raises(ChainError):
        Chain(1, {(1,): 1}).add_chain(Chain(2, {(1, 2): 1}))


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
        assert diameter(Chain(2, [*a, *b])) <= diameter(a) + diameter(b)
    # exactly additive on disjoint supports
    a = Chain(1, {(1,): 2})
    b = Chain(1, {(2,): -1})
    assert diameter(Chain(1, [*a, *b])) == diameter(a) + diameter(b)


def test_count_degenerate():
    chain = Chain(2, {(1, 0): 2, (1, 2): 5, (0, 0): -1})
    assert count_degenerate(C3, chain) == 3
    assert is_degenerate(C3, (1, 0))
    assert not is_degenerate(C3, (1, 2))


# -- the degeneracy contract: (x,) is degenerate iff x == identity ---------------


def _entries(*chains):
    return [entry for chain in chains for simplex in chain.terms for entry in simplex]


def _group_entries(group):
    rng = random.Random(len(group.name))
    return [group.sample(rng) for _ in range(300)]


def _formal_entries():
    free = FreeGroup(2)
    ctx = formal_context(free)
    rng = random.Random(2)
    chains = [homotopy_P(ctx, tuple(free.sample(rng) for _ in range(dim)))
              for dim in range(4) for _ in range(3)]
    return ctx.entries, _entries(*chains, *(boundary(ctx.entries, c) for c in chains))


def _psi_entries(base):
    tower = MitosisTower(base)
    rng = random.Random(3)
    chains = [tower.psi(level, tuple(base.sample(rng) for _ in range(m)))
              for m in range(1, 5) for level in (m, 4)]
    alg = tower.algebra
    # the base samples coded in the tower, so that the base identity is code 0
    samples = list(map(alg.code, _group_entries(base)))
    return alg, _entries(*chains, *(boundary(alg, c) for c in chains)) + samples


CONTRACT = {
    "cyclic3": lambda: (C3, _group_entries(C3)),
    "sym3": lambda: (SymmetricGroup(3), _group_entries(SymmetricGroup(3))),
    "cyclic3*sym3": lambda: (DirectProduct(C3, SymmetricGroup(3)),
                             _group_entries(DirectProduct(C3, SymmetricGroup(3)))),
    "free2": lambda: (FreeGroup(2), _group_entries(FreeGroup(2))),
    "quintuple[free2]": _formal_entries,
    "tower[free3]": lambda: _psi_entries(FreeGroup(3)),
    "tower[cyclic3]": lambda: _psi_entries(C3),
}


@pytest.mark.parametrize("name", list(CONTRACT))
def test_is_identity_is_equality_with_the_identity(name):
    alg, entries = CONTRACT[name]()
    entries = [alg.identity] + entries
    identities = [x for x in entries if x == alg.identity]
    assert len(identities) > 1 and len(identities) < len(entries)
    for x in entries:
        assert is_degenerate(alg, (x,)) == (x == alg.identity)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_count_degenerate_matches_the_entrywise_test_on_psi(m):
    free = FreeGroup(m)
    tower = MitosisTower(free)
    alg = tower.algebra
    chain = tower.psi(m, tuple(free.gens()))

    def degenerate(simplex):
        return any(entry == alg.identity for entry in simplex)

    assert count_degenerate(alg, chain) == sum(abs(c) for s, c in chain if degenerate(s))
    assert project(alg, chain).terms == {s: c for s, c in chain if not degenerate(s)}
    assert count_degenerate(alg, chain) > 0


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
    return [(ctx.entries, homotopy_P(ctx, tuple(free.gens()[:dim])))
            for dim in (0, 1, 2, 3)]


def _prefix_pair_chains():
    # "1" is a prefix of "12": the pair at the last position, at an inner
    # position, and at the first of two
    c15 = CyclicGroup(15)
    return [(c15, Chain(len(next(iter(terms))), terms)) for terms in (
        {(1,): 1, (12,): 2}, {(3, 1): 1, (3, 12): 2}, {(1, 3): 1, (12, 3): 2})]


def _two_byte_rank_chains():
    # over 256 distinct entries, so each rank takes two bytes of a sort key
    group = CyclicGroup(1000)
    rng = random.Random(7)
    chain = Chain(3)
    for _ in range(200):
        chain.add_term(tuple(group.sample(rng) for _ in range(3)), rng.randrange(-3, 3))
    assert len({entry for simplex in chain.terms for entry in simplex}) > 256
    return [(group, chain)]


def _tower_chains():
    free = FreeGroup(3)
    tower = MitosisTower(free)
    return [(tower.algebra, tower.psi(3, tuple(free.gens()[:dim])))
            for dim in (0, 1, 2, 3)]


ALGEBRAS = {
    "cyclic3": lambda: _group_chains(C3),
    "cyclic15": lambda: _group_chains(CyclicGroup(15)),   # entry "1" is a prefix of "12"
    "cyclic15 prefix pairs": _prefix_pair_chains,
    "cyclic1000 two-byte ranks": _two_byte_rank_chains,
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


def _cycling_chain(alg, entries):
    """A dim-2 chain on the pairs of ``entries`` whose terms, in document
    order, cycle through three coefficients, one of them of two digits: each
    term's header carries the tail of a term with another coefficient."""
    simplices = sorted(itertools.product(entries, repeat=2), key=lambda s: term_sort_key(alg, s))
    return Chain(2, dict(zip(simplices, itertools.cycle((-12, 1, 7)))))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_chain_payload_matches_chain_to_json(name):
    cases = ALGEBRAS[name]()
    alg = cases[-1][0]
    entries = list(dict.fromkeys(entry for _, chain in cases for simplex in chain.terms for entry in simplex))
    assert len(entries) >= 3
    chains = [chain for _, chain in cases] + _edge_chains(alg, entries[0]) + [_cycling_chain(alg, entries[:3])]
    assert any(len(chain) > 1 for chain in chains)
    for chain in chains:
        for head in HEADS:
            want = json.dumps({**head, "chain": chain_to_json(alg, chain)}, indent=2, sort_keys=True)
            assert b"".join(chain_payload(alg, head, chain)).decode() == want


def test_chain_payload_memory_does_not_grow_with_the_text():
    # psi(5) renders 27 MB of JSON over 9,732 terms (its bytes are pinned by
    # the "psi 5" expand golden); the sort keys and the rendering hold a few
    # small ints per term and one term's text at a time
    free = FreeGroup(5)
    tower = MitosisTower(free)
    chain = tower.psi(5, tuple(free.gens()))
    tracemalloc.start()
    try:
        size = sum(map(len, chain_payload(tower.algebra, {}, chain)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 25_000_000
    assert peak < 3_000_000, peak


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
        assert b"".join(chain_payload(alg, {}, chain)).decode() == want


def test_entry_text_compact_is_the_sort_key():
    free = FreeGroup(3)
    tower = MitosisTower(free)
    chain = tower.psi(3, tuple(free.gens()[:3]))
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
