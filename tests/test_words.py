import copy
import pickle

import pytest

from barhom.groups import CodedAlgebra, CyclicGroup, FreeGroup
from barhom.homotopy import MitosisTower, homotopy_P
from barhom.quintuple import NonNormalizable
from barhom.words import Conjugated, PillarWord, TowerAlgebra

C3 = CyclicGroup(3)


def _u(level, inv):
    return {"letter": "u", "level": level, "arg": None, "inv": inv}


def _t(level, inv):
    return {"letter": "t", "level": level, "arg": None, "inv": inv}


def _gen(arg):
    return {"letter": "gen", "level": 0, "arg": arg, "inv": False}


def test_tower_ell_word():
    # l at level 1 expands to u1^-1 t1^-1 u1
    alg = TowerAlgebra(C3)
    assert alg.entry_to_json(alg.pillar(1, C3.identity)) == [_u(1, True), _t(1, True), _u(1, False)]


def test_tower_conj_word():
    alg = TowerAlgebra(C3)
    assert alg.entry_to_json(alg.conj(2, 1)) == [_u(2, True), _gen(1), _u(2, False)]
    # trivial conjugation flattens
    assert alg.conj(2, 0) == 0
    assert alg.conj(2, 0, alg.conj(1, 1)) == alg.conj(1, 1)


def test_tower_case1():
    # m(x) * F(a) = F(a) * m(x a)
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, a = F2.gens()
    left = alg.mul(alg.pillar(1, x), alg.conj(1, a))
    right = alg.mul(alg.conj(1, a), alg.pillar(1, F2.mul(x, a)))
    assert left == right


def test_tower_case2():
    # m(x) * a = m(a^-1 x): the identity-role letter is absorbed
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, a = F2.gens()
    assert alg.mul(alg.pillar(1, x), a) == alg.pillar(1, F2.mul(F2.inv(a), x))


def test_tower_stage_commutation():
    # conjugates at stage n commute with anything from lower stages
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, y = F2.gens()
    lower = alg.mul(alg.conj(1, x), y)
    upper = alg.conj(2, y)
    assert alg.mul(lower, upper) == alg.mul(upper, lower)


def test_tower_blocked_products():
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, y = F2.gens()
    with pytest.raises(NonNormalizable):
        alg.mul(alg.pillar(1, x), alg.pillar(1, y))
    with pytest.raises(NonNormalizable):
        # a nontrivial lower tail cannot cross an m-letter from the left
        alg.mul(alg.conj(2, x, y), alg.pillar(2, x))


def test_conj_needs_a_tail_strictly_below_its_level():
    # the canonical form, and the word entry_to_json spells, need every tail
    # below its conjugation's level; a tail at the level itself is refused
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, y = F2.gens()
    for tail in (alg.conj(2, y), alg.pillar(2, y), alg.conj(3, y)):
        with pytest.raises(NonNormalizable):
            alg.conj(2, x, tail)
    assert alg.conj(2, x, alg.conj(1, y)) == Conjugated(2, x, Conjugated(1, y, F2.identity))


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
    assert alg.entry_to_json(alg.identity) == []


def _encoded_chains():
    """psi on the generic 5-simplex, and ``expand --op P --mode word`` on the
    generic simplices of dims 1..3 (P of the 0-simplex is zero) at levels 3
    and 6."""
    base = FreeGroup(5)
    tower = MitosisTower(base)
    yield tower.algebra, tower.psi(5, tuple(base.gens()))
    for dim in range(1, 4):
        for level in (3, 6):
            base = FreeGroup(dim)
            ctx = MitosisTower(base).context(level)
            yield ctx.entries, homotopy_P(ctx, tuple(base.gens()[:dim]))


def test_encoded_entries_are_freely_reduced():
    for alg, chain in _encoded_chains():
        base = alg.algebra.base
        identity = base.entry_to_json(base.identity)
        entries = {entry for simplex, _ in chain for entry in simplex}
        assert entries
        for entry in entries:
            records = alg.entry_to_json(entry)
            for record in records:
                assert not (record["letter"] == "gen" and record["arg"] == identity), entry
            for a, b in zip(records, records[1:]):
                assert not (a["letter"] == b["letter"] == "gen"), entry
                assert not (a["letter"] == b["letter"] != "gen" and a["level"] == b["level"]
                            and a["inv"] != b["inv"]), entry


# -- value records ---------------------------------------------------------------


def _tower_values():
    F2 = FreeGroup(2)
    alg = TowerAlgebra(F2)
    x, y = F2.gens()
    return [
        Conjugated(1, (1,), ()),
        alg.conj(2, y, alg.conj(1, x)),
        alg.pillar(2, F2.identity),
        alg.mul(alg.pillar(1, x), alg.conj(1, y)),
    ]


def test_tower_values_compare_on_class_and_fields():
    a, b = TowerAlgebra(FreeGroup(2)), TowerAlgebra(FreeGroup(2))
    x, y = (1,), (2,)
    assert Conjugated(1, (1,), ()) == Conjugated(1, (1,), ())
    assert a.conj(2, y, a.conj(1, x)) == b.conj(2, y, b.conj(1, x))
    pillar = a.mul(a.conj(1, y), a.pillar(1, x))
    assert pillar == b.mul(b.conj(1, y), b.pillar(1, x)) == PillarWord(1, y, x)
    assert a.mul(a.pillar(1, x), a.conj(1, y)) == b.mul(b.pillar(1, x), b.conj(1, y))
    assert Conjugated(1, (1,), ()) != Conjugated(1, (2,), ())
    assert Conjugated(1, (1,), ()) != PillarWord(1, (1,), ())
    # a tower value never equals a base element, so one codes dict holds both
    assert Conjugated(1, (1,), ()) != ((1,), ())
    assert len({PillarWord(1, (), ()), Conjugated(1, (), ()), (1, (), ())}) == 3
    # a record hashes as the tuple of its fields, so equality alone keeps it
    # apart, with the plain tuple on either side
    assert hash(PillarWord(1, (), ())) == hash((1, (), ()))
    assert (1, (), ()) != PillarWord(1, (), ()) and not ((1, (), ()) == PillarWord(1, (), ()))
    assert not (PillarWord(1, (), ()) == Conjugated(1, (), ()))


def test_one_coded_algebra_codes_tower_values_and_tuples_apart():
    coded = CodedAlgebra(TowerAlgebra(C3))
    values = [Conjugated(1, 2, 0), PillarWord(1, 2, 0), (1, 2, 0)]
    codes = [coded.code(v) for v in values]
    assert len(set(codes)) == 3
    assert [coded.code(v) for v in values] == codes
    assert [type(coded.elems[c]) for c in codes] == [Conjugated, PillarWord, tuple]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_tower_value_copies_are_canonical(clone):
    for value in _tower_values():
        assert clone(value) == value


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
