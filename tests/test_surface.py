"""Tests for divisor-class predicates on an unnodal Enriques surface."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriques_invariants.lattice import (
    DELTA,
    GRAM,
    RANK,
    NumClass,
    divisibility,
    inner,
    isotropic_generator,
    two_isotropic_generator,
)
from enriques_invariants.surface import (
    CANONICAL,
    PhiResult,
    PicClass,
    _gram_times,
    enumerate_isotropic,
    genus,
    half_fiber_form,
    is_effective,
    is_nef,
    phi,
)

F = [None] + [isotropic_generator(i) for i in range(1, 11)]
E12 = two_isotropic_generator(1, 2)
ZERO = NumClass((0,) * 10)

small_coords = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 10)
pic_classes = st.builds(
    PicClass, small_coords.map(NumClass), st.integers(min_value=0, max_value=1)
)

# nonnegative small combos of the ten isotropic generators are all effective
fiber_combos = st.lists(
    st.integers(min_value=1, max_value=10), min_size=1, max_size=4
).map(lambda ix: sum((F[i] for i in ix[1:]), F[ix[0]]))


def test_canonical_class():
    assert CANONICAL.num == ZERO
    assert CANONICAL.eps == 1
    assert CANONICAL + CANONICAL == PicClass(ZERO, 0)


def test_genus_examples():
    assert genus(PicClass(F[1] + F[2], 0)) == 2
    assert genus(PicClass(F[1] + F[2] + F[3] + F[4], 0)) == 7
    assert genus(PicClass(4 * F[1] + 4 * F[2], 0)) == 17


def test_genus_rejects_low_square():
    with pytest.raises(ValueError):
        genus(PicClass(F[1], 0))
    with pytest.raises(ValueError):
        genus(PicClass(F[1] - F[2], 0))


def test_effectivity_base_cases():
    assert is_effective(PicClass(ZERO, 0))
    assert not is_effective(CANONICAL)
    assert not is_effective(PicClass(-F[1], 0))
    assert is_effective(PicClass(F[1], 0))
    assert is_effective(PicClass(F[1], 1))


def test_negative_square_never_effective():
    # unnodal: no (-2)-curves, nothing with negative square is effective
    assert not is_effective(PicClass(F[1] - F[2], 0))
    assert not is_effective(PicClass(F[1] + F[2] - F[3] - F[4], 1))


@given(pic_classes)
def test_nef_iff_effective(d):
    # no negative curves to separate the two cones
    assert is_nef(d) == is_effective(d)


@given(pic_classes)
def test_effective_excludes_negative(d):
    assume(d.num != ZERO)
    if is_effective(d):
        assert not is_effective(PicClass(-d.num, d.eps))


def test_half_fiber_form_examples():
    assert half_fiber_form(PicClass(2 * F[1], 0)) == (2, F[1], 0)
    assert half_fiber_form(PicClass(3 * F[1], 1)) == (3, F[1], 1)
    assert half_fiber_form(PicClass(F[1] + F[2], 0)) is None


def test_half_fiber_form_rejects_nonprimitive_base():
    # multiple is extracted maximally: 4f1 = 4 * f1, not 2 * (2f1)
    mult, base, eps = half_fiber_form(PicClass(4 * F[1], 0))
    assert mult == 4 and base == F[1] and eps == 0
    assert divisibility(base) == 1 or base.square == 0


def test_phi_examples():
    assert phi(PicClass(F[1] + E12, 0)).value == 2
    assert phi(PicClass(F[1] + F[2] + E12, 0)).value == 3
    r = phi(PicClass(9 * F[1] + F[2], 0))
    assert r.value == 1
    assert r.witness.num == F[1]


def test_phi_of_fundamental_class():
    assert phi(PicClass(DELTA, 0)).value == 3


def test_enumerate_examples():
    got = enumerate_isotropic(PicClass(F[1] + F[2], 0), 1)
    nums = [c for c in got]
    assert F[1] in nums and F[2] in nums
    assert enumerate_isotropic(PicClass(2 * (F[1] + E12), 0), 3) == []
    level1 = enumerate_isotropic(PicClass(3 * F[1] + F[2], 0), 1)
    assert F[1] in level1
    h = PicClass(3 * F[1] + F[2], 0)
    assert all(inner(v, h.num) == 1 for v in level1)


@given(fiber_combos, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_enumerate_output_contract(num, kmax):
    h = PicClass(num, 0)
    assume(h.num.square > 0)
    got = enumerate_isotropic(h, kmax)
    seen = set()
    for v in got:
        assert v.square == 0
        assert divisibility(v) == 1
        assert 1 <= inner(v, h.num) <= kmax
        assert is_effective(PicClass(v, 0))
        key = v.coords
        assert key not in seen
        seen.add(key)
    # sorted by pairing first
    pairings = [inner(v, h.num) for v in got]
    assert pairings == sorted(pairings)


# counts measured with the earlier Fraction-based enumerator
@pytest.mark.parametrize("kmax, count", [(2, 242), (3, 4562), (4, 35282)])
def test_enumerate_counts_f1_plus_f2(kmax, count):
    assert len(enumerate_isotropic(PicClass(F[1] + F[2], 0), kmax)) == count


@given(st.tuples(*[st.integers(min_value=-(10**12), max_value=10**12)] * 10))
def test_gram_times_matches_gram_double_loop(v):
    want = [sum(GRAM[i][j] * v[j] for j in range(RANK)) for i in range(RANK)]
    assert _gram_times(v) == want
    assert _gram_times(list(v)) == want


def _permute(v, perm):
    # perm reorders f1..f9, an isometry of the lattice that fixes D
    return NumClass((v.coords[0],) + tuple(v.coords[1 + p] for p in perm))


@given(fiber_combos, st.permutations(range(9)), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_enumerate_commutes_with_permuting_f1_to_f9(num, perm, kmax):
    # the complement basis of the permuted class differs, so a point the
    # search missed on one side shows up as a mismatch
    assume(num.square > 0)
    got = enumerate_isotropic(PicClass(_permute(num, perm), 0), kmax)
    want = enumerate_isotropic(PicClass(num, 0), kmax)
    assert len(got) == len(want)
    assert set(got) == {_permute(v, perm) for v in want}


@given(fiber_combos)
@settings(max_examples=40, deadline=None)
def test_phi_is_least_pairing_over_enumeration(num):
    h = PicClass(num, 0)
    assume(num.square > 0)
    found = enumerate_isotropic(h, math.isqrt(num.square))
    best = min(inner(x, num) for x in found)
    witness = min((x for x in found if inner(x, num) == best), key=lambda x: x.coords)
    assert phi(h) == PhiResult(best, PicClass(witness, 0))


@given(fiber_combos)
@settings(max_examples=40, deadline=None)
def test_phi_contract(num):
    h = PicClass(num, 0)
    assume(h.num.square > 0)
    r = phi(h)
    assert 1 <= r.value
    assert r.value * r.value <= h.num.square
    # witness attains the minimum and is primitive isotropic effective
    w = r.witness.num
    assert w.square == 0
    assert divisibility(w) == 1
    assert inner(w, h.num) == r.value
    # torsion twist leaves the numerical minimum alone
    assert phi(PicClass(num, 1)).value == r.value


@given(fiber_combos)
@settings(max_examples=30, deadline=None)
def test_phi_matches_enumeration_floor(num):
    h = PicClass(num, 0)
    assume(h.num.square > 0)
    r = phi(h)
    assert enumerate_isotropic(h, r.value)
    if r.value > 1:
        assert enumerate_isotropic(h, r.value - 1) == []


@given(fiber_combos, fiber_combos)
@settings(max_examples=60, deadline=None)
def test_hodge_index_on_effective_pairs(a_num, b_num):
    # two effective classes of nonnegative square meet nonnegatively;
    # a zero pairing forces both onto one isotropic ray
    a, b = PicClass(a_num, 0), PicClass(b_num, 0)
    p = inner(a.num, b.num)
    assert p >= 0
    if p == 0:
        assert a.num.square == 0 and b.num.square == 0
        da, db = divisibility(a.num), divisibility(b.num)
        assert db * a.num == da * b.num
