import copy
import itertools
import pickle
import random

import pytest

from barhom.groups import CodedAlgebra, CyclicGroup, FreeGroup
from barhom.quintuple import (
    NonNormalizable,
    Quintuple,
    QuintupleAlgebra,
    VerificationInstance,
    instance_eval,
)

C3 = CyclicGroup(3)


def test_identity_quintuple():
    alg = QuintupleAlgebra(C3)
    assert alg.identity == Quintuple(0, 0, None, 0, 0)
    assert alg.mul(alg.identity, alg.identity) == alg.identity
    assert alg.mul(alg.f(1), alg.identity) == alg.f(1)


def test_case1_rewrite():
    # m(x) f(a) -> h(a) m(x a)
    F = FreeGroup(2)
    alg = QuintupleAlgebra(F)
    x, a = F.gens()[:2]
    got = alg.mul(alg.m(x), alg.f(a))
    assert got == Quintuple(a, F.identity, F.mul(x, a), F.identity, F.identity)


def test_case2_rewrite():
    # m(x) g(a) -> k(a) m(a^-1 x)
    F = FreeGroup(2)
    alg = QuintupleAlgebra(F)
    x, a = F.gens()[:2]
    got = alg.mul(alg.m(x), alg.g(a))
    assert got == Quintuple(F.identity, a, F.mul(F.inv(a), x), F.identity, F.identity)


def test_homomorphism_merge():
    alg = QuintupleAlgebra(C3)
    assert alg.mul(alg.f(1), alg.f(2)) == alg.f(0)
    assert alg.mul(alg.h(1), alg.k(2)) == Quintuple(1, 2, None, 0, 0)
    # k crosses h leftwards, f crosses g
    assert alg.mul(alg.k(1), alg.h(2)) == alg.mul(alg.h(2), alg.k(1))
    assert alg.mul(alg.g(1), alg.f(2)) == alg.mul(alg.f(2), alg.g(1))


def test_two_m_letters_error():
    alg = QuintupleAlgebra(C3)
    with pytest.raises(NonNormalizable):
        alg.mul(alg.m(1), alg.m(2))


def test_blocked_crossings_error():
    alg = QuintupleAlgebra(C3)
    with pytest.raises(NonNormalizable):
        alg.mul(alg.f(1), alg.h(1))
    with pytest.raises(NonNormalizable):
        alg.mul(alg.m(1), alg.h(1))


def test_instance_relation_and_maps():
    for n in (2, 3):
        G = CyclicGroup(n)
        inst = VerificationInstance(G, 5)
        for x in G.elements():
            assert inst.relation_holds(x)
        # f and g commute, h and k commute
        H = inst.target
        for x, y in itertools.product(G.elements(), repeat=2):
            assert H.mul(inst.f(x), inst.g(y)) == H.mul(inst.g(y), inst.f(x))
            assert H.mul(inst.h(x), inst.k(y)) == H.mul(inst.k(y), inst.h(x))


def test_instance_eval_examples():
    G = CyclicGroup(3)
    inst = VerificationInstance(G, 5)
    alg = QuintupleAlgebra(G)
    # values are plain elements of (G x G) x Z_5
    assert instance_eval(inst, alg.m(0)) == (0, 0, 1)      # m(e) = l
    assert instance_eval(inst, alg.f(1)) == (1, 0, 0)
    assert instance_eval(inst, alg.g(2)) == (0, 2, 0)
    assert instance_eval(inst, alg.h(2)) == (2, 2, 0)
    assert instance_eval(inst, alg.k(2)) == (0, 0, 0)


LETTER_KINDS = ("h", "k", "m", "f", "g")


def _letters(alg, group):
    return {kind: getattr(alg, kind) for kind in LETTER_KINDS}


def all_canonical_quintuples(G):
    elems = list(G.elements())
    for h, k in itertools.product(elems, repeat=2):
        for m in elems:
            yield Quintuple(h, k, m, G.identity, G.identity)
        for f, g in itertools.product(elems, repeat=2):
            yield Quintuple(h, k, None, f, g)


@pytest.mark.parametrize("n", [2, 3])
def test_instance_eval_is_multiplicative_exhaustively(n):
    # over every pair of canonical quintuples whose product is normalizable
    G = CyclicGroup(n)
    inst = VerificationInstance(G, 5)
    alg = QuintupleAlgebra(G)
    H = inst.target
    quintuples = list(all_canonical_quintuples(G))
    checked = 0
    for a, b in itertools.product(quintuples, repeat=2):
        try:
            prod = alg.mul(a, b)
        except NonNormalizable:
            continue
        assert instance_eval(inst, prod) == H.mul(instance_eval(inst, a), instance_eval(inst, b))
        checked += 1
    assert checked > len(quintuples)


def test_associativity_on_normalizable_triples():
    G = CyclicGroup(3)
    alg = QuintupleAlgebra(G)
    letters = _letters(alg, G)
    rng = random.Random(0)
    checked = 0
    for _ in range(3000):
        kinds = [rng.choice(LETTER_KINDS) for _ in range(3)]
        args = [G.sample(rng) for _ in range(3)]
        a, b, c = (letters[k](x) for k, x in zip(kinds, args))
        try:
            left = alg.mul(alg.mul(a, b), c)
            right = alg.mul(a, alg.mul(b, c))
        except NonNormalizable:
            continue
        assert left == right
        checked += 1
    assert checked > 100


def test_associativity_on_homotopy_face_triples():
    # adjacent-entry triples as they occur in face computations of the
    # cylinder homotopy chains
    from barhom.groups import FreeGroup
    from barhom.homotopy import formal_context, homotopy_P

    F = FreeGroup(3)
    ctx = formal_context(F)
    alg = ctx.entries
    chain = homotopy_P(ctx, tuple(F.gens()))
    checked = 0
    for simplex, _coeff in chain:
        for i in range(len(simplex) - 2):
            a, b, c = simplex[i : i + 3]
            assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))
            checked += 1
    assert checked > 0


def test_instance_m_has_both_forms():
    # m(x) = h(inv(x)) l f(x) = k(x) l g(inv(x)) by the defining relation
    G = CyclicGroup(3)
    inst = VerificationInstance(G, 5)
    H = inst.target
    for x in G.elements():
        other = H.mul(inst.k(x), H.mul(inst.ell, inst.g(G.inv(x))))
        assert inst.m(x) == other


def test_entry_json():
    alg = QuintupleAlgebra(C3)
    data = alg.entry_to_json(alg.mul(alg.m(1), alg.f(2)))
    assert data == {"h": 2, "k": 0, "m": 0, "f": 0, "g": 0}
    assert alg.entry_to_json(alg.f(1))["m"] is None


# -- value records ---------------------------------------------------------------


def test_quintuples_compare_on_fields():
    a, b = QuintupleAlgebra(FreeGroup(2)), QuintupleAlgebra(FreeGroup(2))
    x, y = (1,), (2,)
    assert a.identity == b.identity == Quintuple((), (), None, (), ())
    assert a.mul(a.m(x), a.f(y)) == b.mul(b.m(x), b.f(y))
    assert QuintupleAlgebra(C3).identity == Quintuple(0, 0, None, 0, 0)
    assert a.f(x) != a.g(x)
    # equal hashes, never equal to the plain tuple on either side
    q = Quintuple(0, 0, None, 1, 0)
    assert hash(q) == hash((0, 0, None, 1, 0))
    assert not ((0, 0, None, 1, 0) == q) and not (q == (0, 0, None, 1, 0))
    assert (0, 0, None, 1, 0) != q


def test_one_coded_algebra_codes_a_quintuple_and_its_tuple_apart():
    alg = QuintupleAlgebra(C3)
    coded = CodedAlgebra(alg)
    q = alg.f(1)
    codes = [coded.code(q), coded.code(tuple(q)), coded.code(alg.identity), coded.code(tuple(alg.identity))]
    assert len(set(codes)) == 4
    assert codes[2] == 0
    assert [type(coded.elems[c]) for c in codes] == [Quintuple, tuple, Quintuple, tuple]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_quintuple_copies_are_canonical(clone):
    alg = QuintupleAlgebra(FreeGroup(2))
    ell = alg.m(alg.source.identity)
    for value in (alg.identity, ell, alg.mul(alg.m((1,)), alg.g((2, 1))), alg.h((-2,))):
        assert clone(value) == value
    assert clone([ell, ell])[1] == ell


def test_quintuples_are_immutable():
    q = QuintupleAlgebra(C3).f(1)
    for name in ("h_arg", "m_arg", "f_arg", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, 2)
    assert q.f_arg == 1


def test_quintuple_repr_is_the_dataclass_format():
    alg = QuintupleAlgebra(FreeGroup(2))
    assert repr(alg.m((1,))) == "Quintuple(h_arg=(), k_arg=(), m_arg=(1,), f_arg=(), g_arg=())"
    assert repr(Quintuple(0, 1, None, 2, 0)) == "Quintuple(h_arg=0, k_arg=1, m_arg=None, f_arg=2, g_arg=0)"


def test_quintuple_set_membership():
    alg = QuintupleAlgebra(C3)
    assert Quintuple(0, 0, None, 1, 0) in {alg.f(1)}
    assert alg.f(1) in {Quintuple(0, 0, None, 1, 0)}
