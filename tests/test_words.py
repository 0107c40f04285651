import copy
import pickle
import random

import pytest

from barhom.groups import CyclicGroup, FreeGroup
from barhom.quintuple import NonNormalizable
from barhom.words import (
    GEN,
    T,
    U,
    Conjugated,
    PillarWord,
    TowerAlgebra,
    gen,
    mitosis_reduce,
    stable,
    word_to_json,
)

C3 = CyclicGroup(3)


def test_free_reduction_of_stable_letters():
    w = mitosis_reduce(C3, [stable(U, 1), stable(U, 1, -1)])
    assert w == ()
    w = mitosis_reduce(C3, [stable(T, 2), stable(U, 1), stable(U, 1, -1), stable(T, 2, -1)])
    assert w == ()


def test_gen_merge():
    # gen(x) gen(y) -> gen(x y), identity gens vanish
    w = mitosis_reduce(C3, [gen(1), gen(2)])
    assert w == ()
    w = mitosis_reduce(C3, [gen(1), gen(1)])
    assert w == ((GEN, 2),)
    w = mitosis_reduce(C3, [gen(1), stable(U, 1), stable(U, 1, -1), gen(2)])
    assert w == ()


def test_reduce_idempotent_and_nonincreasing():
    rng = random.Random(0)
    alphabet = [gen(1), gen(2), stable(U, 1), stable(U, 1, -1), stable(T, 1), stable(T, 1, -1)]
    for _ in range(200):
        letters = [rng.choice(alphabet) for _ in range(rng.randrange(12))]
        reduced = mitosis_reduce(C3, letters)
        assert mitosis_reduce(C3, reduced) == reduced
        assert len(reduced) <= len(letters)


def test_tower_ell_word():
    # l at level 1 expands to u1^-1 t1^-1 u1
    alg = TowerAlgebra(C3)
    word = alg.to_word(alg.ell(1))
    assert word == (stable(U, 1, -1), stable(T, 1, -1), stable(U, 1, 1))


def test_tower_conj_word():
    alg = TowerAlgebra(C3)
    word = alg.to_word(alg.conj(2, 1))
    assert word == (stable(U, 2, -1), (GEN, 1), stable(U, 2, 1))
    # trivial conjugation flattens
    assert alg.conj(2, 0) == 0
    assert alg.conj(2, 0, alg.conj(1, 1)) == alg.conj(1, 1)


def test_tower_case1():
    # m(x) * F(a) = F(a) * m(x a)
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, a = F2.gen(1), F2.gen(2)
    left = alg.mul(alg.pillar(1, x), alg.conj(1, a))
    right = alg.mul(alg.conj(1, a), alg.pillar(1, F2.mul(x, a)))
    assert left == right


def test_tower_case2():
    # m(x) * a = m(a^-1 x): the identity-role letter is absorbed
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, a = F2.gen(1), F2.gen(2)
    assert alg.mul(alg.pillar(1, x), a) == alg.pillar(1, F2.mul(F2.inv(a), x))


def test_tower_stage_commutation():
    # conjugates at stage n commute with anything from lower stages
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    lower = alg.mul(alg.conj(1, F2.gen(1)), F2.gen(2))
    upper = alg.conj(2, F2.gen(2))
    assert alg.mul(lower, upper) == alg.mul(upper, lower)


def test_tower_blocked_products():
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    with pytest.raises(NonNormalizable):
        alg.mul(alg.pillar(1, F2.gen(1)), alg.pillar(1, F2.gen(2)))
    with pytest.raises(NonNormalizable):
        # a nontrivial lower tail cannot cross an m-letter from the left
        alg.mul(alg.conj(2, F2.gen(1), F2.gen(2)), alg.pillar(2, F2.gen(1)))


def test_tower_word_json():
    alg = TowerAlgebra(C3)
    data = alg.entry_to_json(alg.pillar(1, 1))
    assert data == [
        {"letter": "u", "level": 1, "arg": None, "inv": True},
        {"letter": "gen", "level": 0, "arg": 2, "inv": False},
        {"letter": "t", "level": 1, "arg": None, "inv": True},
        {"letter": "gen", "level": 0, "arg": 1, "inv": False},
        {"letter": "u", "level": 1, "arg": None, "inv": False},
    ]
    assert word_to_json(C3, ()) == []


# -- hash-consing ---------------------------------------------------------------


def _tower_values():
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, y = F2.gen(1), F2.gen(2)
    return [
        Conjugated(1, (1,), ()),
        alg.conj(2, y, alg.conj(1, x)),
        alg.ell(2),
        alg.mul(alg.pillar(1, x), alg.conj(1, y)),
    ]


def test_tower_values_are_interned():
    a, b = TowerAlgebra(FreeGroup(2)), TowerAlgebra(FreeGroup(2))
    x, y = (1,), (2,)
    assert Conjugated(1, (1,), ()) is Conjugated(1, (1,), ())
    assert Conjugated(1, (1,), ()) is Conjugated(level=1, arg=(1,), tail=())
    assert a.conj(2, y, a.conj(1, x)) is b.conj(2, y, b.conj(1, x))
    assert a.pillar(1, x, y) is b.pillar(1, x, y) is PillarWord(1, y, x)
    assert a.mul(a.pillar(1, x), a.conj(1, y)) is b.mul(b.pillar(1, x), b.conj(1, y))
    assert Conjugated(1, (1,), ()) is not Conjugated(1, (2,), ())
    assert Conjugated(1, (1,), ()) != PillarWord(1, (1,), ())


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_tower_value_copies_are_canonical(clone):
    for value in _tower_values():
        assert clone(value) is value


def test_tower_values_are_immutable():
    value = Conjugated(1, (1,), ())
    for name in ("level", "arg", "tail", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 2)
    with pytest.raises(AttributeError):
        del value.level
    assert value.level == 1


def test_tower_value_repr_is_the_dataclass_format():
    assert repr(Conjugated(1, (1,), ())) == "Conjugated(level=1, arg=(1,), tail=())"
    assert repr(PillarWord(2, (), (-1, 2))) == "PillarWord(level=2, f_arg=(), m_arg=(-1, 2))"
    nested = Conjugated(2, (2,), Conjugated(1, (1,), ()))
    assert repr(nested) == "Conjugated(level=2, arg=(2,), tail=Conjugated(level=1, arg=(1,), tail=()))"


def test_tower_value_set_membership():
    assert Conjugated(1, (1,), ()) in {Conjugated(1, (1,), ())}
    assert TowerAlgebra(FreeGroup(1)).conj(1, (1,)) in {Conjugated(1, (1,), ())}


def test_tower_value_constructor_checks_fields():
    with pytest.raises(TypeError):
        Conjugated(1, (1,))
    with pytest.raises(TypeError):
        Conjugated(1, (1,), (), tail=())
    with pytest.raises(TypeError):
        PillarWord(1, (), level=1)
