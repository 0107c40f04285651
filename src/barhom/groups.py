"""Pluggable exact group arithmetic.

Every group exposes the same small interface: an identity element, a total
product, inverses, decidable equality (elements are plain hashable Python
values in a canonical form), and JSON encoding.  Concrete carriers are cyclic
groups, symmetric groups and direct products; ``FreeGroup`` provides the
free-symbol carrier used for exact diameter counting, where two elements are
equal only if their reduced words coincide.  ``finite`` says whether a group
can list its elements.  The products of each ``DirectProduct`` are memoized
on the pair of factors; the verification target over cyclic3 has 45
elements, so its memo holds at most 2,025 products.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator


class Group:
    """Base class: a group context operating on opaque element values."""

    name: str = "group"
    # whether ``elements`` and ``order`` are defined
    finite: bool = True

    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def contains(self, a) -> bool:
        raise NotImplementedError

    def elements(self) -> Iterator:
        """Iterate all elements; only for finite carriers."""
        raise NotImplementedError

    def order(self) -> int:
        raise NotImplementedError

    def sample(self, rng: random.Random):
        raise NotImplementedError

    def elem_to_json(self, a) -> Any:
        raise NotImplementedError

    def elem_from_json(self, data):
        raise NotImplementedError

    def describe(self, a) -> str:
        return repr(self.elem_to_json(a))

    def entry_to_json(self, a) -> Any:
        # groups double as entry algebras for bar simplices
        return self.elem_to_json(a)

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

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.n

    def elements(self):
        return iter(range(self.n))

    def order(self):
        return self.n

    def sample(self, rng):
        return rng.randrange(self.n)

    def elem_to_json(self, a):
        return a

    def elem_from_json(self, data):
        if not self.contains(data):
            raise ValueError(f"not an element of {self.name}: {data!r}")
        return data


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

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.degree
            and sorted(a) == list(range(self.degree))
        )

    def elements(self):
        return itertools.permutations(range(self.degree))

    def order(self):
        out = 1
        for i in range(2, self.degree + 1):
            out *= i
        return out

    def sample(self, rng):
        images = list(range(self.degree))
        rng.shuffle(images)
        return tuple(images)

    def elem_to_json(self, a):
        return list(a)

    def elem_from_json(self, data):
        a = tuple(data)
        if not self.contains(a):
            raise ValueError(f"not an element of {self.name}: {data!r}")
        return a


class DirectProduct(Group):
    """Direct product; elements are tuples, one coordinate per factor."""

    def __init__(self, *factors: Group):
        if not factors:
            raise ValueError("direct product needs at least one factor")
        self.factors = factors
        self.name = "x".join(f.name for f in factors)
        self.finite = all(f.finite for f in factors)
        self._products: dict = {}

    @property
    def identity(self) -> tuple:
        return tuple(f.identity for f in self.factors)

    def mul(self, a, b):
        """The factor-wise product, memoized on the pair ``(a, b)``."""
        key = (a, b)
        product = self._products.get(key)
        if product is None:
            product = self._products[key] = tuple(
                [f.mul(x, y) for f, x, y in zip(self.factors, a, b)])
        return product

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == len(self.factors)
            and all(f.contains(x) for f, x in zip(self.factors, a))
        )

    def elements(self):
        return itertools.product(*(f.elements() for f in self.factors))

    def order(self):
        out = 1
        for f in self.factors:
            out *= f.order()
        return out

    def sample(self, rng):
        return tuple(f.sample(rng) for f in self.factors)

    def elem_to_json(self, a):
        return [f.elem_to_json(x) for f, x in zip(self.factors, a)]

    def elem_from_json(self, data):
        if len(data) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates")
        return tuple(f.elem_from_json(x) for f, x in zip(self.factors, data))


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

    def gen(self, i: int) -> tuple:
        """The i-th generator, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range 1..{self.rank}")
        return (i,)

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

    def contains(self, a) -> bool:
        if not isinstance(a, tuple):
            return False
        if not all(isinstance(x, int) and x != 0 and abs(x) <= self.rank for x in a):
            return False
        return all(a[i] != -a[i + 1] for i in range(len(a) - 1))

    def sample(self, rng, max_len: int = 4):
        word: tuple = ()
        for _ in range(rng.randrange(max_len + 1)):
            g = rng.randrange(1, self.rank + 1) * rng.choice((1, -1))
            word = self.mul(word, (g,))
        return word

    def elem_to_json(self, a):
        return list(a)

    def elem_from_json(self, data):
        a = tuple(data)
        if not self.contains(a):
            raise ValueError(f"not a reduced word of {self.name}: {data!r}")
        return a


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
            return cls(n)
    raise ValueError(f"bad group spec: {spec!r}")
