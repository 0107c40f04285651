"""The word algebra of the mitosis tower over a base group.

The tower algebra is the model used to verify homotopy identities.  At level
n the stage homomorphisms are conjugation by the inverse of the n-th stable
letter (for both the top-left and bottom-left roles), the identity, and the
trivial map, with the connecting element l_n = conj(inv(t_n)) and the pillar
function m_n(x) = l_n * x^-1.  A value in canonical form is either a bare
base-group element, F_n(a) followed by a lower-level value, or
F_n(a) * m_n(x).  Products arising from face maps of the homotopy chains
always normalize to one of these shapes; anything else raises
``NonNormalizable``.  Equality of canonical forms is the designated decision
procedure — no claim is made of solving the word problem in general.

The tower values ``Conjugated`` and ``PillarWord`` are namedtuples on the
``groups.ValueRecord`` base: immutable values that hash as their fields and
compare on their class and fields, so no tower value equals a base element
or a value of the other class.  ``TowerAlgebra`` keeps no product memo
of its own: ``homotopy.MitosisTower`` wraps it in a ``groups.CodedAlgebra``,
whose product rows compute each product once, and the chains of psi hold
the int codes of that algebra.

Output spells a value out as a freely reduced word in the stable letters u_n,
t_n and gen(x) for base elements x (``TowerAlgebra.entry_to_json``): the
canonical shapes fix that word, so no general free reduction is needed.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import Group, ValueRecord
from .quintuple import NonNormalizable


class Conjugated(ValueRecord, namedtuple("Conjugated", "level arg tail")):
    """F_level(arg) * tail, with arg a nonidentity base element."""

    __slots__ = ()


class PillarWord(ValueRecord, namedtuple("PillarWord", "level f_arg m_arg")):
    """F_level(f_arg) * m_level(m_arg); the m-letter absorbs anything after it."""

    __slots__ = ()


def value_level(v) -> int:
    if isinstance(v, (Conjugated, PillarWord)):
        return v.level
    return 0


class TowerAlgebra:
    """Entry algebra for chains valued in the mitosis tower of a base group."""

    def __init__(self, base: Group):
        self.base = base
        self.identity = base.identity

    # constructors ---------------------------------------------------------

    def conj(self, level: int, arg, tail=None):
        """F_level(arg) * tail, flattening a trivial conjugation."""
        if tail is None:
            tail = self.identity
        if value_level(tail) >= level:
            raise NonNormalizable("tail must live strictly below the conjugation level")
        if arg == self.identity:
            return tail
        return Conjugated(level, arg, tail)

    def pillar(self, level: int, m_arg) -> PillarWord:
        """m_level(m_arg)."""
        return PillarWord(level, self.identity, m_arg)

    def image(self, v, base_map, shift: int):
        """The image of the tower value ``v`` under the tower map that the base
        homomorphism h = ``base_map`` induces, composed with the level shift
        s_d, d = ``shift``: F_L(a) * t goes to F_(L+d)(h(a)) * image(t),
        flattened if h(a) = e, F_L(f) * m_L(x) to F_(L+d)(h(f)) * m_(L+d)(h(x)),
        and a base element a to h(a).  s_d is injective and maps only the
        identity to the identity."""
        if isinstance(v, Conjugated):
            return self.conj(v.level + shift, base_map(v.arg), self.image(v.tail, base_map, shift))
        if isinstance(v, PillarWord):
            return PillarWord(v.level + shift, base_map(v.f_arg), base_map(v.m_arg))
        return base_map(v)

    # multiplication --------------------------------------------------------

    def mul(self, v, w):
        """The canonical form of v*w; ``NonNormalizable`` if it has none."""
        if v == self.identity:
            return w
        if w == self.identity:
            return v
        lv, lw = value_level(v), value_level(w)
        if lv == 0 and lw == 0:
            return self.base.mul(v, w)
        G = self.base
        n = max(lv, lw)
        # level-n components: (f_arg, m_arg or None, tail)
        a1, m1, t1 = self._at_level(v, n)
        a2, m2, t2 = self._at_level(w, n)
        if m1 is not None:
            if m2 is not None:
                raise NonNormalizable("two m-letters at one level")
            # F(a1)m(x)F(a2)t2 = F(a1 a2)m(x a2)t2 = F(a1 a2)m(t2^-1 x a2)
            if value_level(t2) > 0:
                raise NonNormalizable(
                    "an m-letter cannot absorb a value from a higher stage"
                )
            m_arg = G.mul(G.inv(t2), G.mul(m1, a2))
            return PillarWord(n, G.mul(a1, a2), m_arg)
        if m2 is not None:
            if t1 != self.identity:
                raise NonNormalizable("no rewrite moves a value leftwards across m")
            return PillarWord(n, G.mul(a1, a2), m2)
        # F(a1)t1 F(a2)t2 = F(a1 a2)(t1 t2): conjugates at stage n commute
        # with everything from lower stages
        return self.conj(n, G.mul(a1, a2), self.mul(t1, t2))

    def _at_level(self, v, n: int):
        if isinstance(v, PillarWord) and v.level == n:
            return v.f_arg, v.m_arg, self.identity
        if isinstance(v, Conjugated) and v.level == n:
            return v.arg, None, v.tail
        return self.base.identity, None, v

    # serialization ----------------------------------------------------------

    def entry_to_json(self, v) -> list:
        """The letter records ``{"letter", "level", "arg", "inv"}`` of ``v``
        in the stable letters u_n, t_n and gen(x) for base elements x.

        F_n(a)*tail is u_n^-1 gen(a) u_n followed by the tail's records,
        F_n(a)*m_n(x) is u_n^-1 gen(a x^-1) t_n^-1 gen(x) u_n (m_n(x) =
        h(x^-1) * l_n * f(x) spelled out) and a base element v is gen(v).
        A gen record of the identity is left out, and then the word is freely
        reduced as it stands: two gen letters are never adjacent, and
        neighbouring stable letters differ in kind or level, because ``conj``
        keeps every tail strictly below its level.
        """
        G = self.base
        records: list = []

        def letter(kind: str, level: int, inv: bool) -> None:
            records.append({"letter": kind, "level": level, "arg": None, "inv": inv})

        def element(x) -> None:
            if x != self.identity:
                records.append({"letter": "gen", "level": 0, "arg": G.entry_to_json(x), "inv": False})

        while isinstance(v, Conjugated):
            letter("u", v.level, True)
            element(v.arg)
            letter("u", v.level, False)
            v = v.tail
        if isinstance(v, PillarWord):
            letter("u", v.level, True)
            element(G.mul(v.f_arg, G.inv(v.m_arg)))
            letter("t", v.level, True)
            element(v.m_arg)
            letter("u", v.level, False)
        else:
            element(v)
        return records
