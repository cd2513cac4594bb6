"""Exact arithmetic in the Enriques lattice.

The numerical lattice of an Enriques surface is the even unimodular lattice
of signature (1, 9), isomorphic to U + E8(-1).  Everything here works in the
isotropic-decagon basis {D, f1, ..., f9} with

    D.D = 10,   D.fi = 3,   fi.fi = 0,   fi.fj = 1  (i != j),

which is convenient because the ten classes f1, ..., f9 and
f10 = 3D - f1 - ... - f9 form an isotropic 10-sequence (fi.fj = 1 for
i != j) and every class we care about is a small integer combination of
them.  All routines are exact integer computations.

A class is validated once, where it enters: the public NumClass(...)
constructor checks that it has ten integer coordinates.  Sums, differences,
negatives and integer multiples of valid classes are valid by construction,
so they, and the few internal sites whose coordinates are provably ten
integers, build their result with the unchecked NumClass._of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import add, mul, neg, sub

RANK = 10


def basis_gram() -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the {D, f1..f9} basis.

    Determinant -1 and signature (1, 9); the test suite recomputes both
    from scratch.
    """
    rows = []
    for i in range(RANK):
        row = []
        for j in range(RANK):
            if i == 0 and j == 0:
                row.append(10)
            elif i == 0 or j == 0:
                row.append(3)
            elif i == j:
                row.append(0)
            else:
                row.append(1)
        rows.append(tuple(row))
    return tuple(rows)


GRAM = basis_gram()


def gram_times(v: list[int] | tuple[int, ...]) -> list[int]:
    """G v for the Gram matrix G above, in closed form.

    The pairing of x with v is then the dot product of x with G v, so a
    caller pairing many classes with one v computes G v once.
    """
    v0 = v[0]
    s = sum(v) - v0
    t = 3 * v0 + s
    return [10 * v0 + 3 * s] + [t - vi for vi in v[1:]]


@dataclass(frozen=True)
class NumClass:
    """Numerical divisor class: integer coordinates in the fixed basis.

    NumClass(coords) validates: it raises ValueError unless there are ten
    coordinates and TypeError unless all are integers.  NumClass._of skips
    those checks and is only for coordinates known to be a tuple of ten
    integers, such as the results of arithmetic on valid classes.

    The class has slots and no instance __dict__: a slotted instance is
    about a third of the size of one with a dict, and quicker to make.
    Being frozen, it refuses assignment, so _of writes the coords slot
    directly through the slot's descriptor.  The slots are declared here,
    not by dataclass(slots=True): that option rebuilds the class, and the
    __setattr__ it generates names the replaced class, so assigning any
    other attribute would raise TypeError, not FrozenInstanceError.
    Copies and unpickling rebuild through _of (__reduce__), since the
    default restore of slot state would assign through that __setattr__.
    """

    __slots__ = ("coords",)
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != RANK:
            raise ValueError(f"need {RANK} coordinates, got {len(self.coords)}")
        if not all(isinstance(c, int) for c in self.coords):
            raise TypeError("coordinates must be integers")

    @classmethod
    def _of(cls, coords: tuple[int, ...]) -> "NumClass":
        """Unchecked constructor: coords must already be ten integers."""
        obj = object.__new__(cls)
        _set_coords(obj, coords)
        return obj

    def __reduce__(self):
        return NumClass._of, (self.coords,)

    @staticmethod
    def zero() -> "NumClass":
        return _ZERO

    def __bool__(self) -> bool:
        return any(self.coords)

    def __add__(self, other: "NumClass") -> "NumClass":
        return NumClass._of(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "NumClass") -> "NumClass":
        return NumClass._of(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "NumClass":
        return NumClass._of(tuple(map(neg, self.coords)))

    def __mul__(self, k: int) -> "NumClass":
        if not isinstance(k, int):
            return NotImplemented
        return NumClass._of(tuple([k * a for a in self.coords]))

    __rmul__ = __mul__

    @property
    def square(self) -> int:
        return inner(self, self)

    def __str__(self) -> str:
        return _NUM_FORMAT % self.coords


# the coords slot's own setter, which a frozen class's __setattr__ does not
# guard
_set_coords = NumClass.coords.__set__

# one %d slot per coordinate; the coordinates are ints, so %d prints them
# exactly as str() does
COORDS_FORMAT = ",".join(["%d"] * RANK)
_NUM_FORMAT = "num[" + COORDS_FORMAT + "]"
_ZERO = NumClass((0,) * RANK)
DELTA = NumClass((1,) + (0,) * 9)


def inner(a: NumClass, b: NumClass) -> int:
    """Intersection pairing of two numerical classes.

    Expanded form of x^T G y for the structured Gram matrix above; the
    closed form avoids the 10x10 double loop.
    """
    x, y = a.coords, b.coords
    x0, y0 = x[0], y[0]
    sa = sum(x) - x0
    sb = sum(y) - y0
    dot = sum(map(mul, x, y)) - x0 * y0
    return 10 * x0 * y0 + 3 * (x0 * sb + y0 * sa) + sa * sb - dot


# f1..f10, and the 45 classes D - fi - fj at [i-1][j-1] and [j-1][i-1];
# built once at import and shared, which is safe because NumClass is
# immutable
_ISOTROPIC = tuple(
    NumClass(tuple(int(k == i) for k in range(RANK))) for i in range(1, 10)
) + (NumClass((3,) + (-1,) * 9),)
_TWO_ISOTROPIC: list[list[NumClass | None]] = [[None] * 10 for _ in range(10)]
for _i, _j in combinations(range(10), 2):
    _TWO_ISOTROPIC[_i][_j] = _TWO_ISOTROPIC[_j][_i] = (
        DELTA - _ISOTROPIC[_i] - _ISOTROPIC[_j]
    )
del _i, _j


def isotropic_generator(i: int) -> NumClass:
    """The i-th member of the standard isotropic 10-sequence.

    i in 1..9 gives fi; i = 10 gives f10 = 3D - f1 - ... - f9, the unique
    primitive isotropic class pairing to 1 with each of f1..f9.
    """
    if not 1 <= i <= 10:
        raise ValueError("index must be in 1..10")
    return _ISOTROPIC[i - 1]


def two_isotropic_generator(i: int, j: int) -> NumClass:
    """The isotropic class D - fi - fj (i != j), pairing 2 with fi and fj."""
    if i == j:
        raise ValueError("indices must be distinct")
    if not (1 <= i <= 10 and 1 <= j <= 10):
        raise ValueError("index must be in 1..10")
    return _TWO_ISOTROPIC[i - 1][j - 1]


def divisibility(a: NumClass) -> int:
    """gcd of the coordinates; 0 for the zero class."""
    return math.gcd(*a.coords)


# ---------------------------------------------------------------------------
# the W(E10) chamber
#
# The simple roots of E10 in this basis are r0 = D - f1 - f2 - f3 and
# ri = fi - f(i+1) for i = 1..9, all of square -2.  A class x is written by
# its pairings a = (x.f1, ..., x.f10), which determine it because
# f1 + ... + f10 = 3D; then x.D = (a1 + ... + a10)/3.  The reflection
# x -> x + (x.ri) ri swaps a_i and a_(i+1) for i >= 1, and for r0 adds
# x.r0 = x.D - a1 - a2 - a3 to a1, a2, a3 (and to x.D).


def from_pairings(a: list[int] | tuple[int, ...]) -> NumClass:
    """The class x with x.fi = a[i-1] for i = 1..10.

    Every integer vector with 3 | sum(a) is the pairing vector of exactly
    one class: x = (d - 3 a10) D + sum_(i<=9) (a10 - ai) fi with d = sum(a)/3.
    """
    d, r = divmod(sum(a), 3)
    if len(a) != RANK or r:
        raise ValueError("need ten pairings with a sum divisible by 3")
    a10 = a[9]
    return NumClass._of((d - 3 * a10,) + tuple([a10 - ai for ai in a[:9]]))


def reduce_to_chamber(x: NumClass) -> tuple[list[int], list[int]]:
    """Move x into the fundamental chamber of W(E10) by simple reflections.

    Returns (a, word): a = (y.f1, ..., y.f10) for the reduced class y, which
    is dominant (y.r >= 0 for every simple root r, i.e. a1 >= ... >= a10
    and y.D >= a1 + a2 + a3), and word, the indices of the simple roots
    reflected in, in order, so that y = s_word[-1] ... s_word[0] x and x is
    recovered by reflecting y in reversed(word).

    The loop sorts a in descending order by adjacent swaps; while
    s = y.r0 < 0 it reflects in r0, which lowers y.D by -s, and sorts
    again.  Reflections keep y in the positive cone, where y.D > 0, so the
    loop stops after at most x.D reflections in r0.  Raises ValueError
    unless x lies in that cone (x.x > 0 and x.D > 0).
    """
    g = gram_times(x.coords)
    d = g[0]
    if d <= 0 or sum(map(mul, x.coords, g)) <= 0:
        raise ValueError("need a class of positive square with x.D > 0")
    a = g[1:]
    a.append(3 * d - sum(a))
    word: list[int] = []
    while True:
        # insertion sort; swapping positions j-1 and j reflects in rj
        for i in range(1, RANK):
            v = a[i]
            j = i
            while j and a[j - 1] < v:
                a[j] = a[j - 1]
                word.append(j)
                j -= 1
            a[j] = v
        s = d - a[0] - a[1] - a[2]
        if s >= 0:
            return a, word
        a[0] += s
        a[1] += s
        a[2] += s
        d += s
        word.append(0)
