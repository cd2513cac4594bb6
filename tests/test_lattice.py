"""Tests for the rank-10 even unimodular lattice of signature (1,9)."""

import copy
import dataclasses
import itertools
import pickle
import struct
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enriques_invariants.lattice import (
    DELTA,
    GRAM,
    RANK,
    NumClass,
    basis_gram,
    divisibility,
    from_pairings,
    inner,
    isotropic_generator,
    reduce_to_chamber,
    two_isotropic_generator,
)

F = [None] + [isotropic_generator(i) for i in range(1, 11)]

coords_strategy = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 10)
classes = coords_strategy.map(NumClass)


def test_rank():
    assert RANK == 10
    assert len(GRAM) == 10 and all(len(row) == 10 for row in GRAM)


def test_gram_entries():
    # basis is (Delta, f1..f9): Delta^2=10, Delta.fi=3, fi^2=0, fi.fj=1
    assert GRAM[0][0] == 10
    for i in range(1, 10):
        assert GRAM[0][i] == 3
        assert GRAM[i][0] == 3
        assert GRAM[i][i] == 0
        for j in range(1, 10):
            if i != j:
                assert GRAM[i][j] == 1


def test_basis_gram_matches_gram():
    assert basis_gram() == GRAM


def test_determinant_is_minus_one():
    assert sympy.Matrix(GRAM).det() == -1


def test_signature_one_nine():
    eigs = sympy.Matrix(GRAM).eigenvals()
    pos = sum(m for v, m in eigs.items() if v > 0)
    neg = sum(m for v, m in eigs.items() if v < 0)
    assert (pos, neg) == (1, 9)


def test_inner_matches_gram_product():
    # closed-form inner vs literal x^T G y on a spread of classes
    probes = [
        NumClass(tuple(1 if k == i else 0 for k in range(10))) for i in range(10)
    ] + [NumClass((1, -2, 3, 0, 0, 1, 0, -1, 0, 2))]
    G = sympy.Matrix(GRAM)
    for a in probes:
        for b in probes:
            x = sympy.Matrix(a.coords)
            y = sympy.Matrix(b.coords)
            assert inner(a, b) == (x.T * G * y)[0, 0]


def test_pinned_pairings():
    assert inner(DELTA, F[3]) == 3
    assert inner(F[1], F[2]) == 1
    assert (F[1] + F[2]).square == 2
    assert (F[1] + F[2] - F[3] - F[4]).square == -4


def test_tenth_generator():
    # f10 = 3*Delta - f1 - ... - f9
    f10 = F[10]
    assert f10 == 3 * DELTA - sum(F[2:10], F[1])
    assert f10.square == 0
    for i in range(1, 10):
        assert inner(f10, F[i]) == 1
    assert inner(f10, DELTA) == 3


@pytest.mark.parametrize("i,j", [(1, 2), (1, 10), (3, 7)])
def test_pair_generator(i, j):
    e = two_isotropic_generator(i, j)
    assert e.square == 0
    assert inner(e, F[i]) == 2
    assert inner(e, F[j]) == 2
    for k in range(1, 11):
        if k not in (i, j):
            assert inner(e, F[k]) == 1


def test_pair_generator_formula():
    # E{1,2} is Delta - f1 - f2 in the standard basis
    assert two_isotropic_generator(1, 2) == DELTA - F[1] - F[2]
    assert inner(two_isotropic_generator(1, 2), F[3]) == 1


def test_divisibility_examples():
    assert divisibility(F[1]) == 1
    assert divisibility(F[10]) == 1
    assert divisibility(2 * (F[1] + F[2])) == 2


def test_divisibility_zero():
    assert divisibility(NumClass((0,) * 10)) == 0


@given(classes, st.integers(min_value=-5, max_value=5))
def test_divisibility_scales(a, k):
    assert divisibility(k * a) == abs(k) * divisibility(a)


@given(classes, classes)
def test_inner_symmetric(a, b):
    assert inner(a, b) == inner(b, a)


@given(classes, classes, classes)
def test_inner_bilinear(a, b, c):
    assert inner(a + b, c) == inner(a, c) + inner(b, c)


@given(classes, classes, st.integers(min_value=-4, max_value=4))
def test_inner_scalar(a, b, k):
    assert inner(k * a, b) == k * inner(a, b)


@given(classes)
def test_even(a):
    assert a.square % 2 == 0


@given(classes)
def test_neg_square(a):
    assert (-a).square == a.square


def _unit(i):
    return NumClass(tuple(int(k == i) for k in range(RANK)))


def test_generator_tables_match_from_scratch_classes():
    f = [None] + [_unit(i) for i in range(1, 10)] + [NumClass((3,) + (-1,) * 9)]
    for i in range(1, 11):
        assert isotropic_generator(i) == f[i]
        for j in range(1, 11):
            if i != j:
                assert two_isotropic_generator(i, j) == NumClass(
                    tuple(d - a - b for d, a, b in zip(DELTA.coords, f[i].coords, f[j].coords))
                )


@pytest.mark.parametrize("i", [0, 11, -1])
def test_isotropic_generator_rejects_out_of_range(i):
    with pytest.raises(ValueError):
        isotropic_generator(i)


@pytest.mark.parametrize("i,j", [(0, 1), (1, 11), (-1, 2), (3, 3)])
def test_two_isotropic_generator_rejects_bad_indices(i, j):
    with pytest.raises(ValueError):
        two_isotropic_generator(i, j)


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        NumClass((0,) * 9)
    with pytest.raises(TypeError):
        NumClass((0,) * 9 + (Fraction(1, 2),))
    with pytest.raises(TypeError):
        NumClass((0,) * 9 + ("1",))


def _same_class(got, coords):
    want = NumClass(tuple(coords))
    assert type(got) is NumClass
    assert got == want and hash(got) == hash(want)
    assert all(type(c) is int for c in got.coords)


wide = st.tuples(*[st.integers(min_value=-(10**12), max_value=10**12)] * 10)


@given(wide, wide, st.integers(min_value=-(10**6), max_value=10**6))
def test_arithmetic_results_equal_validated_classes(x, y, k):
    a, b = NumClass(x), NumClass(y)
    _same_class(a + b, (p + q for p, q in zip(x, y)))
    _same_class(a - b, (p - q for p, q in zip(x, y)))
    _same_class(-a, (-p for p in x))
    _same_class(k * a, (k * p for p in x))
    _same_class(a * k, (k * p for p in x))


@given(wide, wide)
def test_inner_matches_gram_double_sum(x, y):
    want = sum(x[i] * GRAM[i][j] * y[j] for i in range(RANK) for j in range(RANK))
    assert inner(NumClass(x), NumClass(y)) == want


@given(st.tuples(*[st.integers(min_value=-(10**12), max_value=10**12)] * 10))
def test_num_class_str_matches_join_form(coords):
    assert str(NumClass(coords)) == "num[" + ",".join(str(c) for c in coords) + "]"


def test_num_class_has_slots_and_no_dict():
    x = NumClass((1,) + (0,) * 9)
    assert not hasattr(x, "__dict__")
    # one pointer slot over a bare object: no __dict__ and no __weakref__
    assert NumClass.__basicsize__ == object.__basicsize__ + struct.calcsize("P")
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.coords = (0,) * 10
    # a name that is not a field is refused the same way
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.foo = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del x.coords
    assert x.coords == (1,) + (0,) * 9


# 25 lists of 40: 1,000 classes, with repeats from the small coordinates;
# every other key comes from NumClass._of, and looking each tuple up as a
# validated NumClass needs _of(t) == NumClass(t) with equal hashes
@settings(max_examples=25)
@given(st.lists(st.tuples(*[st.integers(-1, 1)] * 10), min_size=40, max_size=40))
def test_num_class_keys_a_dict_as_its_coordinates_do(coords):
    by_class, by_coords = {}, {}
    for i, c in enumerate(coords):
        by_class[NumClass._of(c) if i % 2 else NumClass(c)] = i
        by_coords[c] = i
    assert {x.coords: i for x, i in by_class.items()} == by_coords
    assert all(by_class[NumClass(c)] == i for c, i in by_coords.items())


def test_num_class_survives_copy_and_pickle():
    x = NumClass((3, -1, 2, 0, 0, 0, 0, 0, 0, 7))
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is NumClass and y == x and hash(y) == hash(x)


# the simple roots r0 = D - f1 - f2 - f3 and ri = fi - f(i+1) of W(E10)
ROOTS = [DELTA - F[1] - F[2] - F[3]] + [F[i] - F[i + 1] for i in range(1, 10)]

# mostly inside the positive cone: a positive multiple of D, perturbed
cone_side = st.tuples(
    st.integers(min_value=1, max_value=20),
    *[st.integers(min_value=-12, max_value=12)] * 9,
).map(NumClass)


@given(cone_side)
@example(NumClass((1,) + (0,) * 9))
@example(F[1] + F[2])
@example(NumClass((20,) + (-12,) * 9))
def test_reduce_to_chamber_descends_to_a_dominant_class(x):
    assume(inner(x, x) > 0 and inner(x, DELTA) > 0)
    a, word = reduce_to_chamber(x)
    y = from_pairings(a)
    assert a == [inner(y, F[i]) for i in range(1, 11)]
    assert all(inner(y, r) >= 0 for r in ROOTS)
    # every reflection of the word is a descent, x.r < 0, and each one in
    # r0 lowers x.D
    v = x
    for i in word:
        t = inner(v, ROOTS[i])
        assert t < 0
        w = v + t * ROOTS[i]
        if i == 0:
            assert inner(w, DELTA) < inner(v, DELTA)
        v = w
    assert v == y
    for i in reversed(word):
        v = v + inner(v, ROOTS[i]) * ROOTS[i]
    assert v == x


@pytest.mark.parametrize(
    "x", [NumClass((0,) * 10), F[1], 3 * F[1], F[1] - F[2], -(F[1] + F[2]), -DELTA]
)
def test_reduce_to_chamber_rejects_classes_outside_the_positive_cone(x):
    # outside the cone the loop need not stop: f1 - f2 reflects forever
    with pytest.raises(ValueError):
        reduce_to_chamber(x)


@given(classes)
def test_from_pairings_inverts_the_pairings(x):
    a = [inner(x, F[i]) for i in range(1, 11)]
    assert from_pairings(a) == x
    assert from_pairings(tuple(a)) == x


@pytest.mark.parametrize("a", [[1] * 10, [0] * 9, [0] * 11])
def test_from_pairings_rejects_vectors_of_no_class(a):
    with pytest.raises(ValueError):
        from_pairings(a)
