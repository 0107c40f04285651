"""Canonical quintuple algebra for formal cylinder-homotopy entries.

Entries of the generic cylinder homotopy are products of five letter kinds
h(a), k(b), m(x), f(c), g(d) with arguments in a source group.  The canonical
form keeps them in the order h < k < m < f < g, with two rewrite families:

* homomorphism merges  f(a)f(b) -> f(ab)  (same for g, h, k),
* commutations         g(d)f(c) -> f(c)g(d)  and  k(b)h(a) -> h(a)k(b),
* the pillar crossings m(x)f(a) -> h(a)m(xa)  and  m(x)g(a) -> k(a)m(a^-1 x).

The crossings encode the defining relation l*f(x)*g(x) = h(x)*k(x)*l through
m(x) := h(x^-1)*l*f(x); in canonical form an expression with an m-letter has
empty f and g slots.  Products that would need any other rewrite (or a second
m-letter) raise ``NonNormalizable``: they cannot arise from face maps of the
homotopy chains, so hitting one signals a bug in the caller.

Quintuples are hash-consed (``barhom.interned``): building one with the
fields of an existing quintuple returns that object, so equality is object
identity, quintuples are immutable, and the table of canonical quintuples
lives for the process.
"""

from __future__ import annotations

import json

from .groups import CodedAlgebra, CyclicGroup, DirectProduct, Group
from .interned import Interned


class NonNormalizable(Exception):
    """The requested product lies outside the designated rewrite set."""


class Quintuple(Interned):
    """Canonical form of h(h_arg) k(k_arg) m(m_arg) f(f_arg) g(g_arg)."""

    __slots__ = ("h_arg", "k_arg", "m_arg", "f_arg", "g_arg")


class QuintupleAlgebra:
    """Entry algebra of canonical quintuples over a source group."""

    def __init__(self, source: Group):
        self.source = source
        e = source.identity
        self.identity = Quintuple(e, e, None, e, e)

    # letter constructors -------------------------------------------------

    def h(self, a) -> Quintuple:
        e = self.source.identity
        return Quintuple(a, e, None, e, e)

    def k(self, b) -> Quintuple:
        e = self.source.identity
        return Quintuple(e, b, None, e, e)

    def m(self, x) -> Quintuple:
        e = self.source.identity
        return Quintuple(e, e, x, e, e)

    def f(self, c) -> Quintuple:
        e = self.source.identity
        return Quintuple(e, e, None, c, e)

    def g(self, d) -> Quintuple:
        e = self.source.identity
        return Quintuple(e, e, None, e, d)

    @property
    def ell(self) -> Quintuple:
        # l = m(e): m(e) = h(e) l f(e)
        return self.m(self.source.identity)

    # algebra --------------------------------------------------------------

    def mul(self, left: Quintuple, right: Quintuple) -> Quintuple:
        """Normalize left*right, pushing the letters of ``right`` leftwards."""
        G = self.source
        e = G.identity
        h1, k1, m1, f1, g1 = left.h_arg, left.k_arg, left.m_arg, left.f_arg, left.g_arg

        def blocked(letter, arg):
            raise NonNormalizable(
                f"cannot move {letter}({json.dumps(G.entry_to_json(arg), sort_keys=True)}) "
                f"across the f/g letters of {json.dumps(self.entry_to_json(left), sort_keys=True)}"
            )

        # h and k letters only cross each other; m must be the sole m-letter
        if right.h_arg != e:
            if m1 is not None or f1 != e or g1 != e:
                blocked("h", right.h_arg)
            h1 = G.mul(h1, right.h_arg)
        if right.k_arg != e:
            if m1 is not None or f1 != e or g1 != e:
                blocked("k", right.k_arg)
            k1 = G.mul(k1, right.k_arg)
        if right.m_arg is not None:
            if m1 is not None:
                raise NonNormalizable("two m-letters in one product")
            if f1 != e or g1 != e:
                blocked("m", right.m_arg)
            m1 = right.m_arg
        if right.f_arg != e:
            if m1 is None:
                f1 = G.mul(f1, right.f_arg)  # crosses g by commutation
            else:
                # m(x) f(a) = h(a) m(x a); h(a) then crosses k
                h1 = G.mul(h1, right.f_arg)
                m1 = G.mul(m1, right.f_arg)
        if right.g_arg != e:
            if m1 is None:
                g1 = G.mul(g1, right.g_arg)
            else:
                # m(x) g(a) = k(a) m(a^-1 x)
                k1 = G.mul(k1, right.g_arg)
                m1 = G.mul(G.inv(right.g_arg), m1)
        return Quintuple(h1, k1, m1, f1, g1)

    # serialization ---------------------------------------------------------

    def entry_to_json(self, q: Quintuple) -> dict:
        G = self.source
        return {
            "h": G.entry_to_json(q.h_arg),
            "k": G.entry_to_json(q.k_arg),
            "m": None if q.m_arg is None else G.entry_to_json(q.m_arg),
            "f": G.entry_to_json(q.f_arg),
            "g": G.entry_to_json(q.g_arg),
        }


class _Memo(dict):
    """x -> ``build(x)``, built on the first lookup of x."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, x):
        value = self[x] = self.build(x)
        return value


class VerificationInstance:
    """Concrete model of the cylinder-homotopy hypotheses.

    The target is H = (G x G) x Z_N with f(x) = (x, e, 0), g(x) = (e, x, 0),
    h(x) = (x, x, 0), k(x) = (e, e, 0) and l = (e, e, 1).  The third factor is
    central, so l f(x) g(x) = (x, x, 1) = h(x) k(x) l holds while l, m(x) and
    the pillar entries stay nontrivial.

    ``target`` is the ``CodedAlgebra`` of H: ``ell`` and the values of f, g, h,
    k and m are int codes of its elements, and only ``target.entry_to_json``
    decodes them.  f, g, h and m are memoized per element of G.
    """

    def __init__(self, base: Group, modulus: int = 5):
        self.base = base
        self.modulus = modulus
        self.target = CodedAlgebra(DirectProduct(base, base, CyclicGroup(modulus)))
        code = self.target.code
        e = base.identity
        self.ell = code((e, e, 1 % modulus))
        self._f = _Memo(lambda x: code((x, e, 0)))
        self._g = _Memo(lambda x: code((e, x, 0)))
        self._h = _Memo(lambda x: code((x, x, 0)))
        self._m = _Memo(self._pillar)

    def f(self, x) -> int:
        return self._f[x]

    def g(self, x) -> int:
        return self._g[x]

    def h(self, x) -> int:
        return self._h[x]

    def k(self, x) -> int:
        # (e, e, 0), the identity of H
        return self.target.identity

    def m(self, x) -> int:
        return self._m[x]

    def _pillar(self, x) -> int:
        # m(x) = h(x^-1) * l * f(x)
        H = self.target
        return H.mul(self.h(self.base.inv(x)), H.mul(self.ell, self.f(x)))

    def relation_holds(self, x) -> bool:
        H = self.target
        lhs = H.mul(self.ell, H.mul(self.f(x), self.g(x)))
        rhs = H.mul(self.h(x), H.mul(self.k(x), self.ell))
        return lhs == rhs


def instance_eval(inst: VerificationInstance, q: Quintuple):
    """Interpret a formal quintuple in the concrete instance.

    This is the algebra homomorphism used as the brute-force oracle:
    instance_eval(a*b) == instance_eval(a)*instance_eval(b) whenever a*b is
    normalizable.
    """
    H = inst.target
    value = inst.h(q.h_arg)
    value = H.mul(value, inst.k(q.k_arg))
    if q.m_arg is not None:
        value = H.mul(value, inst.m(q.m_arg))
    value = H.mul(value, inst.f(q.f_arg))
    return H.mul(value, inst.g(q.g_arg))
