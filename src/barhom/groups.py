"""Pluggable exact group arithmetic.

Every group exposes the same small interface: an identity element, a total
product, inverses, decidable equality (elements are plain hashable Python
values in a canonical form), sampling and one JSON encoder,
``entry_to_json``.  A group is also an entry algebra for bar simplices:
``identity``, ``mul`` and ``entry_to_json`` are all the chain operations use.
Groups encode elements for output but do not decode them: nothing reads
barhom's JSON back.  Concrete carriers are cyclic groups, symmetric groups
and direct products; ``FreeGroup`` provides the free-symbol carrier used for
exact diameter counting, where two elements are equal only if their reduced
words coincide.  ``finite`` says whether a group can list its elements; a
finite group's order is the length of that list.

``CodedAlgebra`` is the one coding wrapper: it wraps any entry algebra (a
group, or the mitosis tower's ``TowerAlgebra``) and codes its values as
small ints, in the order each is first seen, with one memoized product row
per code.  The verification target ``(G x G) x Z_N`` and the tower of
``homotopy.MitosisTower`` are coded algebras: their entries are int codes,
which hash and compare as ints, and only ``entry_to_json`` decodes them.  A
simplex of such entries is a tuple of ints, which CPython's cyclic garbage
collector stops tracking.  Codes are assigned lazily, so an infinite algebra
is coded as it is met; over cyclic3 the target has 45 elements, so its table
holds at most 2,025 products, and psi on the generic 6-simplex codes 146
tower values and computes 209 tower products.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator


class Group:
    """Base class: a group context operating on opaque element values."""

    name: str = "group"
    # whether ``elements`` is defined
    finite: bool = True

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def elements(self) -> Iterator:
        """Iterate all elements; only for finite carriers."""
        raise NotImplementedError

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def entry_to_json(self, a) -> Any:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class CyclicGroup(Group):
    """Z/n with elements 0..n-1."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cyclic group order must be >= 1")
        self.n = n
        self.name = f"cyclic{n}"

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def inv(self, a: int) -> int:
        return (-a) % self.n

    def elements(self):
        return iter(range(self.n))

    def sample(self, rng):
        return rng.randrange(self.n)

    def entry_to_json(self, a):
        return a


class SymmetricGroup(Group):
    """S_n; an element is the tuple of images of 0..n-1 (one-line form)."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.name = f"sym{degree}"

    @property
    def identity(self) -> tuple:
        return tuple(range(self.degree))

    def mul(self, a: tuple, b: tuple) -> tuple:
        # (a*b)(i) = a(b(i))
        return tuple(a[b[i]] for i in range(self.degree))

    def inv(self, a: tuple) -> tuple:
        out = [0] * self.degree
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def elements(self):
        return itertools.permutations(range(self.degree))

    def sample(self, rng):
        images = list(range(self.degree))
        rng.shuffle(images)
        return tuple(images)

    def entry_to_json(self, a):
        return list(a)


class DirectProduct(Group):
    """Direct product; elements are tuples, one coordinate per factor."""

    def __init__(self, *factors: Group):
        if not factors:
            raise ValueError("direct product needs at least one factor")
        self.factors = factors
        self.name = "x".join(f.name for f in factors)
        self.finite = all(f.finite for f in factors)

    @property
    def identity(self) -> tuple:
        return tuple(f.identity for f in self.factors)

    def mul(self, a, b):
        return tuple([f.mul(x, y) for f, x, y in zip(self.factors, a, b)])

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def sample(self, rng):
        return tuple(f.sample(rng) for f in self.factors)

    def entry_to_json(self, a):
        return [f.entry_to_json(x) for f, x in zip(self.factors, a)]


class FreeGroup(Group):
    """Free group on generators g1..g_rank.

    Elements are reduced words stored as tuples of nonzero ints: ``i`` is the
    i-th generator, ``-i`` its inverse.  Equality is syntactic equality of
    reduced words, which is what makes diameter counts exact: distinct formal
    terms can never collide.
    """

    finite = False

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        self.rank = rank
        self.name = f"free{rank}"

    @property
    def identity(self) -> tuple:
        return ()

    def gens(self) -> list:
        return [(i,) for i in range(1, self.rank + 1)]

    def mul(self, a: tuple, b: tuple) -> tuple:
        # cancel at the seam only; a and b are already reduced
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a: tuple) -> tuple:
        return tuple(-x for x in reversed(a))

    def sample(self, rng):
        """A product of up to four random generators and inverses."""
        word: tuple = ()
        for _ in range(rng.randrange(5)):
            g = rng.randrange(1, self.rank + 1) * rng.choice((1, -1))
            word = self.mul(word, (g,))
        return word

    def entry_to_json(self, a):
        return list(a)


class CodedAlgebra:
    """An entry algebra whose values are coded as ints, in the order each is
    first seen; the identity is coded first, as 0.

    ``elems[c]`` is the value with code ``c`` and ``codes`` maps it back.
    ``rows[a]`` maps ``b`` to the code of ``elems[a] * elems[b]``, filled on
    first use, so each product of the wrapped algebra is computed once; a
    product that raises stores nothing and raises again on the next call.
    These rows are the only product memo of a coded algebra.  Over a group,
    ``inv``, ``elements`` and ``sample`` code the group's own.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.elems: list = []
        self.codes: dict = {}
        self.rows: list = []
        self.code(algebra.identity)

    @property
    def name(self) -> str:
        return self.algebra.name

    @property
    def finite(self) -> bool:
        return self.algebra.finite

    def code(self, value) -> int:
        """The code of a value of the wrapped algebra, assigned on first use."""
        c = self.codes.get(value)
        if c is None:
            c = self.codes[value] = len(self.elems)
            self.elems.append(value)
            self.rows.append({})
        return c

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        row = self.rows[a]
        c = row.get(b)
        if c is None:
            c = row[b] = self.code(self.algebra.mul(self.elems[a], self.elems[b]))
        return c

    def inv(self, a: int) -> int:
        return self.code(self.algebra.inv(self.elems[a]))

    def elements(self):
        return map(self.code, self.algebra.elements())

    def sample(self, rng):
        return self.code(self.algebra.sample(rng))

    def entry_to_json(self, a: int):
        return self.algebra.entry_to_json(self.elems[a])


def parse_group(spec: str) -> Group:
    """Parse CLI group specs: 'cyclic3', 'sym4', 'free2', 'cyclic2*sym3'."""
    spec = spec.strip().lower()
    if "*" in spec:
        return DirectProduct(*(parse_group(part) for part in spec.split("*")))
    for prefix, cls in (("cyclic", CyclicGroup), ("sym", SymmetricGroup), ("free", FreeGroup)):
        if spec.startswith(prefix):
            try:
                n = int(spec[len(prefix):])
            except ValueError:
                raise ValueError(f"bad group spec: {spec!r}")
            if cls is FreeGroup and n < 1:
                # the trivial group, which has nothing to sample
                raise ValueError(f"bad group spec: {spec!r}")
            return cls(n)
    raise ValueError(f"bad group spec: {spec!r}")
