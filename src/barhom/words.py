"""Word models for the mitosis tower over a base group.

Two layers live here.  ``MitosisWord`` is the flat model: freely reduced
words over the graded alphabet {gen(x), u_k, t_k and inverses}, with adjacent
gen-letters merged through the base group.  It is the inspection and
serialization surface.

The tower algebra is the structured model actually used to verify homotopy
identities.  At level n the stage homomorphisms are conjugation by the
inverse of the n-th stable letter (for both the top-left and bottom-left
roles), the identity, and the trivial map, with the connecting element
l_n = conj(inv(t_n)) and the pillar function m_n(x) = l_n * x^-1.  A value in
canonical form is either a bare base-group element, F_n(a) followed by a
lower-level value, or F_n(a) * m_n(x).  Products arising from face maps of
the homotopy chains always normalize to one of these shapes; anything else
raises ``NonNormalizable``.  Equality of canonical forms is the designated
decision procedure — no claim is made of solving the word problem in general.

The tower values ``Conjugated`` and ``PillarWord`` are hash-consed
(``barhom.interned``): building one with the fields of an existing value
returns that object, so equality is object identity, values are immutable,
and the table of canonical values lives for the process.  The products of
each ``TowerAlgebra`` are memoized on the pair of factors.
"""

from __future__ import annotations

from typing import Any, Union

from .groups import Group
from .interned import Interned
from .quintuple import NonNormalizable

# -- flat words --------------------------------------------------------------

GEN = "gen"
U = "u"
T = "t"

# a letter is ('gen', elem) or ('u'|'t', level, +1|-1)
Letter = tuple
MitosisWord = tuple


def gen(elem) -> Letter:
    return (GEN, elem)


def stable(kind: str, level: int, exp: int = 1) -> Letter:
    if kind not in (U, T):
        raise ValueError(f"bad letter kind {kind!r}")
    if level < 1:
        raise ValueError("stable letters live at levels >= 1")
    if exp not in (1, -1):
        raise ValueError("exponent must be +1 or -1")
    return (kind, level, exp)


def mitosis_reduce(G: Group, letters) -> MitosisWord:
    """Freely reduce and gen-merge; idempotent and length-nonincreasing."""
    identity = G.identity
    stack: list = []
    for letter in letters:
        if letter[0] == GEN and letter[1] == identity:
            continue
        stack.append(letter)
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            if a[0] == GEN and b[0] == GEN:
                merged = G.mul(a[1], b[1])
                stack.pop()
                stack.pop()
                if merged != identity:
                    stack.append((GEN, merged))
                continue
            if a[0] != GEN and b[0] != GEN and a[0] == b[0] and a[1] == b[1] and a[2] == -b[2]:
                stack.pop()
                stack.pop()
                continue
            break
    return tuple(stack)


def word_to_json(G: Group, word: MitosisWord) -> list:
    out = []
    for letter in word:
        if letter[0] == GEN:
            out.append({"letter": GEN, "level": 0, "arg": G.elem_to_json(letter[1]), "inv": False})
        else:
            kind, level, exp = letter
            out.append({"letter": kind, "level": level, "arg": None, "inv": exp < 0})
    return out


# -- tower values -------------------------------------------------------------


class Conjugated(Interned):
    """F_level(arg) * tail, with arg a nonidentity base element."""

    __slots__ = ("level", "arg", "tail")


class PillarWord(Interned):
    """F_level(f_arg) * m_level(m_arg); the m-letter absorbs anything after it."""

    __slots__ = ("level", "f_arg", "m_arg")


TowerValue = Union[Conjugated, PillarWord, Any]


def value_level(v) -> int:
    if isinstance(v, (Conjugated, PillarWord)):
        return v.level
    return 0


class TowerAlgebra:
    """Entry algebra for chains valued in the mitosis tower of a base group."""

    def __init__(self, base: Group):
        self.base = base
        self.identity = base.identity
        self._products: dict = {}

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

    def pillar(self, level: int, m_arg, f_arg=None) -> PillarWord:
        if f_arg is None:
            f_arg = self.base.identity
        return PillarWord(level, f_arg, m_arg)

    def ell(self, level: int) -> PillarWord:
        return self.pillar(level, self.base.identity)

    # multiplication --------------------------------------------------------

    def mul(self, v, w):
        """The canonical form of v*w, memoized; a ``NonNormalizable``
        product raises on every call."""
        key = (v, w)
        product = self._products.get(key)
        if product is None:
            product = self._products[key] = self._mul(v, w)
        return product

    def _mul(self, v, w):
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

    # flat expansion ---------------------------------------------------------

    def to_word(self, v) -> MitosisWord:
        G = self.base
        if isinstance(v, Conjugated):
            head = [stable(U, v.level, -1), gen(v.arg), stable(U, v.level, 1)]
            return mitosis_reduce(G, head + list(self.to_word(v.tail)))
        if isinstance(v, PillarWord):
            # F_n(a) * m_n(x) with m_n(x) = h(inv(x)) * l_n * f(x) spelled out
            n, a, x = v.level, v.f_arg, v.m_arg
            letters = [
                stable(U, n, -1),
                gen(G.mul(a, G.inv(x))),
                stable(T, n, -1),
                gen(x),
                stable(U, n, 1),
            ]
            return mitosis_reduce(G, letters)
        return mitosis_reduce(G, [gen(v)])

    def entry_to_json(self, v) -> list:
        return word_to_json(self.base, self.to_word(v))

