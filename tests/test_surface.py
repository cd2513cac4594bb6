"""Tests for divisor-class predicates on an unnodal Enriques surface."""

import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enriques_invariants.lattice import (
    DELTA,
    GRAM,
    RANK,
    NumClass,
    divisibility,
    from_pairings,
    gram_times,
    inner,
    isotropic_generator,
    reduce_to_chamber,
    two_isotropic_generator,
)
from enriques_invariants.surface import (
    CANONICAL,
    PhiResult,
    PicClass,
    _reduce_basis,
    _replay,
    _SliceEnumerator,
    _solve_linear_form,
    enumerate_isotropic,
    genus,
    half_fiber_form,
    is_effective,
    is_nef,
    isotropic_slices,
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


# positive combinations of at least two distinct generators: effective, of
# positive square
effective_h = st.lists(
    st.tuples(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=5)),
    min_size=2,
    max_size=5,
).map(lambda terms: sum((c * F[i] for i, c in terms), ZERO))


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


def _phi_by_enumeration(h):
    """The first non-empty slice H.x = k of the enumerator, and its least
    class by coordinates: phi(H)^2 <= H.H bounds k by isqrt(H.H)."""
    for k, _, flat in isotropic_slices(h, math.isqrt(h.square)):
        return PhiResult(k, PicClass(NumClass(flat[:RANK]), 0))
    raise AssertionError("no isotropic class below isqrt(H.H)")


def test_phi_answers_as_the_enumerator_on_repeats():
    h = PicClass(F[1] + F[2] + E12, 0)
    for c in (h, h + CANONICAL, h):
        assert phi(c) == _phi_by_enumeration(c)


# the simple roots r0 = D - f1 - f2 - f3 and ri = fi - f(i+1) of W(E10)
ROOTS = [DELTA - F[1] - F[2] - F[3]] + [F[i] - F[i + 1] for i in range(1, 10)]


def _reflect(x, r):
    return x + inner(x, r) * r


@given(
    effective_h,
    st.lists(st.integers(min_value=0, max_value=9), min_size=5, max_size=60),
    st.lists(st.tuples(*[st.integers(min_value=1, max_value=10)] * 2), max_size=12),
    st.integers(min_value=0, max_value=1),
)
@example(4 * F[1] + F[2] + F[3], [9, 0, 8, 0, 7, 0], [(1, 10)], 1)
# reduces to pairings (3, 2, ..., 2), where r0 is orthogonal to the reduced
# class and moves the least witness
@example(DELTA - F[1], [0, 9, 3, 0, 5], [(2, 7)], 0)
@settings(max_examples=60, deadline=None)
def test_phi_is_the_enumerator_witness_on_reflected_classes(num, word, swaps, eps):
    # W(E10) keeps the effective isotropic classes, and with them phi; a
    # product of transpositions fi <-> fj is an S10 relabelling.  The
    # witness is the enumerator's least class of the first non-empty slice
    assume(num.square > 0)
    for i in word:
        num = _reflect(num, ROOTS[i])
    for i, j in swaps:
        if i != j:
            num = _reflect(num, F[i] - F[j])
    h = PicClass(num, eps)
    assert phi(h) == _phi_by_enumeration(h)


def test_phi_raises_on_every_call_for_an_invalid_class():
    bad = PicClass(-(F[1] + F[2]), 0)  # square 2, not effective
    for _ in range(3):
        with pytest.raises(ValueError):
            phi(bad)


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


@given(fiber_combos, st.integers(min_value=1, max_value=4))
@example(F[1] + F[2], 4)
@example(DELTA, 4)
@settings(max_examples=40, deadline=None)
def test_slice_solutions_are_effective(num, k):
    # isotropic_slices tests no x.D: an isotropic class pairing positively
    # with H in the positive cone pairs positively with D
    # solutions come packed; each raw solution, primitive or not, is decoded
    assume(num.square > 0)
    enum = _SliceEnumerator(num, k)
    for x in _chunks(enum.decode(enum.solutions(k))):
        assert inner(NumClass(x), DELTA) > 0


def _chunks(flat):
    # the coordinate vectors of a flat decode
    return [flat[i : i + RANK] for i in range(0, len(flat), RANK)]


# the (class, kmax) pairs of the enumerate benchmark, E1 = f1 and
# E{1,2} = D - f1 - f2: E1+E2 at kmax 2 and 3, E1+E{1,2} at 3 and 4, ...
ENUMERATE_BASES = (
    ((0, 1, 1, 0, 0, 0, 0, 0, 0, 0), (2, 3)),  # E1+E2
    ((1, 0, -1, 0, 0, 0, 0, 0, 0, 0), (3, 4)),  # E1+E{1,2}
    ((0, 2, 1, 0, 0, 0, 0, 0, 0, 0), (3, 4)),  # 2E1+E2
    ((0, 1, 1, 1, 0, 0, 0, 0, 0, 0), (4, 5)),  # E1+E2+E3
    ((0, 3, 1, 0, 0, 0, 0, 0, 0, 0), (4, 5)),  # 3E1+E2
    ((1, 1, -1, 0, 0, 0, 0, 0, 0, 0), (5,)),  # 2E1+E{1,2}
    ((0, 4, 1, 0, 0, 0, 0, 0, 0, 0), (5,)),  # 4E1+E2
    ((2, -1, -2, 0, 0, 0, 0, 0, 0, 0), (5,)),  # E1+2E{1,2}
)


def _assert_filter_keeps_what_gcd_keeps(enum):
    # slices() against the per-slice filter it replaced: decode every
    # solution, keep those with gcd 1, and drop the slices left empty
    want = {}
    for k in range(1, enum.kmax + 1):
        xs = _chunks(enum.decode(sorted(enum.solutions(k))))
        kept = [x for x in xs if math.gcd(*x) == 1]
        if kept:
            want[k] = (len(kept), kept)
    got = {k: (n, _chunks(flat)) for k, n, flat in enum.slices()}
    assert got == want


def test_multiples_filter_keeps_what_gcd_keeps():
    # the imprimitive solutions on slice k are e times the primitive ones of
    # slice k/e; 3E1+E2 and 4E1+E2 have slices that hold only such multiples
    for coords, kmaxes in ENUMERATE_BASES:
        for kmax in kmaxes:
            _assert_filter_keeps_what_gcd_keeps(_SliceEnumerator(NumClass(coords), kmax))


@given(fiber_combos, st.integers(min_value=1, max_value=4))
@example(3 * F[1] + F[2], 4)
@example(2 * (F[1] + E12), 4)
@settings(max_examples=40, deadline=None)
def test_multiples_filter_keeps_what_gcd_keeps_on_random_classes(num, kmax):
    assume(num.square > 0)
    _assert_filter_keeps_what_gcd_keeps(_SliceEnumerator(num, kmax))


def test_isotropic_slices_checks_before_the_first_slice():
    for h, kmax in ((PicClass(F[1], 0), 2), (PicClass(F[1] + F[2], 0), 0)):
        with pytest.raises(ValueError):
            isotropic_slices(h, kmax)


def test_slice_solutions_have_no_repeats():
    # a leaf whose last coordinate is solved by root = 0 has one candidate,
    # not two; these slices hold 5,329 such leaves
    for coords, kmaxes in ENUMERATE_BASES:
        for kmax in kmaxes:
            enum = _SliceEnumerator(NumClass(coords), kmax)
            for k in range(1, kmax + 1):
                packed = enum.solutions(k)
                assert len(set(packed)) == len(packed), (coords, kmax, k)


# counts measured with the earlier Fraction-based enumerator
@pytest.mark.parametrize("kmax, count", [(2, 242), (3, 4562), (4, 35282)])
def test_enumerate_counts_f1_plus_f2(kmax, count):
    assert len(enumerate_isotropic(PicClass(F[1] + F[2], 0), kmax)) == count


@given(st.tuples(*[st.integers(min_value=-(10**12), max_value=10**12)] * 10))
def test_gram_times_matches_gram_double_loop(v):
    want = [sum(GRAM[i][j] * v[j] for j in range(RANK)) for i in range(RANK)]
    assert gram_times(v) == want
    assert gram_times(list(v)) == want


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


# ---------------------------------------------------------------------------
# an independent oracle: the W(E10)-orbit of f10


def _pairings(x):
    g = gram_times(x.coords)
    return g[1:] + [3 * g[0] - sum(g[1:])]


def _root_pairing(b, i):
    # nu.ri for the class nu with pairings b
    return b[i - 1] - b[i] if i else sum(b) // 3 - b[0] - b[1] - b[2]


def _orbit_enumeration(h, kmax):
    """enumerate_isotropic by a walk over the orbit of f10.

    Every primitive isotropic effective class is w.f10 (E10 has one cusp),
    and with y the chamber reduction of H, nu.H is the pairing of y with
    the class nu reflected into y's frame.  From f10 the walk takes the
    ascents s_i nu (nu.ri > 0) and keeps one only when i is its least
    descent, so each class is reached once; y.(s_i nu) = y.nu +
    (nu.ri)(y.ri) >= y.nu for dominant y, so it stops at y.nu > kmax.
    """
    y, word = reduce_to_chamber(h)
    yc, back = from_pairings(y), word[::-1]
    stack = [[1] * 9 + [0]] if y[9] <= kmax else []
    found = []
    while stack:
        b = stack.pop()
        found.append(from_pairings(_replay(list(b), back)))
        for i in range(RANK):
            if _root_pairing(b, i) <= 0:
                continue
            m = _replay(list(b), (i,))
            if all(_root_pairing(m, j) >= 0 for j in range(i)):
                if inner(from_pairings(m), yc) <= kmax:
                    stack.append(m)
    return sorted(found, key=lambda x: (inner(x, h), x.coords))


@given(
    fiber_combos,
    st.lists(st.integers(min_value=0, max_value=9), max_size=40),
    st.integers(min_value=1, max_value=3),
)
@example(F[1] + F[2], [], 3)
@example(DELTA - F[1], [0, 9, 3, 0, 5], 2)
@settings(max_examples=40, deadline=None)
def test_enumerate_matches_the_orbit_of_f10(num, word, kmax):
    # word scrambles the class by simple reflections: the same classes,
    # reflected, in a different complement basis
    assume(num.square > 0)
    for i in word:
        num = _reflect(num, ROOTS[i])
    assert enumerate_isotropic(PicClass(num, 0), kmax) == _orbit_enumeration(num, kmax)


# ---------------------------------------------------------------------------
# classes far from the chamber: coordinates past 2^64 need wide lanes

FAR_OUT = NumClass(
    (
        14333316412284353104,
        -25102405125908652634,
        -33668750099475326712,
        -36592066245401592537,
        43440239800288088001,
        31181791926813427939,
        26998523718131467977,
        25570958573963760999,
        8029107909487269417,
        2042847090534926748,
    )
)


def _climb(num, word):
    """Reflect num in the simple roots of word, then sort its pairings in
    ascending order and reflect in r0 until a coordinate passes 2^65.

    Each r0 step raises x.D: the three least pairings sum to less than x.D.
    Returns the class and the whole word.
    """
    a = _replay(_pairings(num), word)
    word = list(word)
    while max(map(abs, from_pairings(a).coords)) < 1 << 65:
        for i in range(1, RANK):
            for j in range(i, 0, -1):
                if a[j - 1] <= a[j]:
                    break
                a[j - 1], a[j] = a[j], a[j - 1]
                word.append(j)
        word.append(0)
        _replay(a, (0,))
    return from_pairings(a), word


def _assert_enumerates_as_image(num, word, kmax, count=None):
    # the isometry s_word[-1] ... s_word[0] as a matrix on coordinates
    cols = [
        from_pairings(_replay(_pairings(NumClass(e)), word)).coords
        for e in ((0,) * j + (1,) + (0,) * (RANK - 1 - j) for j in range(RANK))
    ]

    def image(x):
        return NumClass(tuple(sum(map(mul, x.coords, row)) for row in zip(*cols)))

    h = image(num)
    base = enumerate_isotropic(PicClass(num, 0), kmax)
    want = sorted(map(image, base), key=lambda x: (inner(x, h), x.coords))
    got = enumerate_isotropic(PicClass(h, 0), kmax)
    assert got == want
    if count is not None:
        assert len(got) == count
    return h, got


@pytest.mark.parametrize("kmax, count", [(2, 242), (3, 4562)])
def test_far_out_class_enumerates_as_the_image_of_f1_plus_f2(kmax, count):
    h, word = _climb(F[1] + F[2], [])
    assert h == FAR_OUT
    _, got = _assert_enumerates_as_image(F[1] + F[2], word, kmax, count)
    assert max(abs(c) for x in got for c in x.coords).bit_length() > 64


@given(fiber_combos, st.lists(st.integers(min_value=0, max_value=9), max_size=30))
@settings(max_examples=15, deadline=None)
def test_wide_lane_enumeration_commutes_with_reflections(num, word):
    assume(num.square > 0)
    h, word = _climb(num, word)
    _assert_enumerates_as_image(num, word, 2)


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


def _kernel(num):
    return _solve_linear_form(tuple(gram_times(num.coords)))[2]


@given(st.tuples(*[st.integers(min_value=-4, max_value=4)] * 10))
@example((34, 9, 11, 11, 11, 7, 7, 12, 11, 11))
@example((0, 2, 2, 0, -2, 2, 0, 0, 0, 6))
def test_solve_linear_form_gives_a_kernel_basis(w):
    assume(any(w))
    g, x0, kernel = _solve_linear_form(w)
    assert abs(g) == math.gcd(*w)
    assert sum(map(mul, w, x0)) == g
    assert len(kernel) == RANK - 1
    assert all(sum(map(mul, w, v)) == 0 for v in kernel)
    # {x : w.x = 0} has Euclidean Gram determinant |w/g|^2; a proper
    # sublattice (or a dependent family) would not
    gram = [[sum(map(mul, u, v)) for v in kernel] for u in kernel]
    norms, _ = _fraction_ldl(gram)
    assert math.prod(norms) * g * g == sum(x * x for x in w)


def _complement_gram(basis):
    # N(x, y) = -x.G.y by the double loop over GRAM
    return [
        [-sum(x[i] * GRAM[i][j] * y[j] for i in range(RANK) for j in range(RANK)) for y in basis]
        for x in basis
    ]


def _fraction_ldl(gram):
    """Gram-Schmidt of a Gram matrix over Fraction: squared norms and mu."""
    n = len(gram)
    gram = [[Fraction(x) for x in row] for row in gram]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for k in range(n):
        for j in range(k):
            s = sum(mu[j][i] * mu[k][i] * norms[i] for i in range(j))
            mu[k][j] = (gram[k][j] - s) / norms[j]
        norms.append(gram[k][k] - sum(mu[k][i] ** 2 * norms[i] for i in range(k)))
    return norms, mu


@given(effective_h)
@settings(max_examples=60, deadline=None)
def test_reduced_basis_spans_the_kernel_lattice(num):
    assume(num.square > 0)
    kernel = _kernel(num)
    basis, d, _ = _reduce_basis(kernel)
    assert len(basis) == RANK - 1
    assert all(inner(NumClass(tuple(b)), num) == 0 for b in basis)
    # every reduced vector lies in the kernel lattice, so equal Gram
    # determinants mean equal lattices
    assert math.prod(_fraction_ldl(_complement_gram(kernel))[0]) == d[RANK - 1]
    assert math.prod(_fraction_ldl(_complement_gram(basis))[0]) == d[RANK - 1]


@given(effective_h)
@settings(max_examples=60, deadline=None)
def test_reduced_basis_is_lll_reduced(num):
    assume(num.square > 0)
    _, d, lam = _reduce_basis(_kernel(num))
    n = RANK - 1
    for k in range(n):
        for j in range(k):
            assert 2 * abs(lam[k][j]) <= d[j + 1]
    for k in range(1, n):
        # delta = 3/4 in integers
        assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2


@given(effective_h)
@settings(max_examples=60, deadline=None)
def test_reduction_minors_and_coefficients_match_fraction_ldl(num):
    assume(num.square > 0)
    basis, d, lam = _reduce_basis(_kernel(num))
    norms, mu = _fraction_ldl(_complement_gram(basis))
    n = RANK - 1
    assert d == [math.prod(norms[:k]) for k in range(n + 1)]
    for k in range(n):
        for j in range(k):
            assert lam[k][j] == d[j + 1] * mu[k][j]


@given(small_coords.map(NumClass))
@example(F[1])
@example(F[1] - F[2])
def test_reduction_rejects_forms_that_are_not_negative_definite(num):
    # square 0: the complement contains the class itself (semidefinite);
    # square < 0: the complement has signature (1, 8) (indefinite)
    assume(num and num.square <= 0)
    with pytest.raises(ArithmeticError, match="not negative definite"):
        _reduce_basis(_kernel(num))
    with pytest.raises(ArithmeticError, match="not negative definite"):
        _SliceEnumerator(num, 1)


@given(
    st.tuples(*[st.integers(min_value=-(10**12), max_value=10**12)] * 10),
    st.integers(min_value=0, max_value=1),
)
def test_pic_class_str_matches_join_form(coords, eps):
    want = "pic[" + ",".join(str(c) for c in coords) + f";{eps}]"
    assert str(PicClass(NumClass(coords), eps)) == want
