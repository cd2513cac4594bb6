"""Tests for the line-bundle cohomology decision procedure."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques_invariants.cohomology import (
    CohTriple,
    certify_mult_surjective,
    chi,
    coh,
    k3_coh,
)
from enriques_invariants.decomposition import parse
from enriques_invariants.lattice import (
    NumClass,
    isotropic_generator,
    two_isotropic_generator,
)
from enriques_invariants.moduli import h1_tangent_k3
from enriques_invariants.surface import CANONICAL, PicClass

F = [None] + [isotropic_generator(i) for i in range(1, 11)]
E12 = two_isotropic_generator(1, 2)
ZERO = PicClass(NumClass((0,) * 10), 0)

grid_coords = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 10)
grid_classes = st.builds(
    PicClass, grid_coords.map(NumClass), st.integers(min_value=0, max_value=1)
)


def as_tuple(t: CohTriple):
    return (t.h0, t.h1, t.h2)


def test_zero_and_canonical():
    assert as_tuple(coh(ZERO)) == (1, 0, 0)
    assert as_tuple(coh(CANONICAL)) == (0, 0, 1)


def test_negative_square_triple():
    d = PicClass(F[1] + F[2] - F[3] - F[4], 0)
    assert as_tuple(coh(d)) == (0, 1, 0)


def test_negative_square_h0_vanishes():
    d = PicClass(2 * F[1] + 3 * F[2] - F[3] - F[4], 0)
    assert d.square < 0
    assert coh(d).h0 == 0


def test_half_fiber_multiples():
    assert as_tuple(coh(PicClass(2 * F[3], 0))) == (2, 1, 0)
    assert as_tuple(coh(PicClass(2 * F[3], 1))) == (1, 0, 0)
    assert as_tuple(k3_coh(PicClass(2 * F[3], 0))) == (3, 1, 0)


def test_half_fiber_h0_table():
    # h0((lE,0)) = floor(l/2)+1, h0((lE,1)) = ceil(l/2)
    for l in range(1, 7):
        assert coh(PicClass(l * F[1], 0)).h0 == l // 2 + 1
        assert coh(PicClass(l * F[1], 1)).h0 == (l + 1) // 2


def test_k3_h1_of_fiber_multiples():
    for l in range(1, 7):
        assert k3_coh(PicClass(l * F[1], 0)).h1 == l - 1


def test_k3_of_zero():
    assert as_tuple(k3_coh(ZERO)) == (1, 0, 1)


def test_big_and_nef_side():
    d = PicClass(F[1] + F[2], 0)
    assert as_tuple(coh(d)) == (2, 0, 0)


def test_chi_examples():
    assert chi(ZERO) == 1
    assert chi(CANONICAL) == 1
    assert chi(PicClass(F[1] + E12 - F[2], 0)) == 0


def test_chi_is_half_square_plus_one():
    d = PicClass(2 * F[1] + 3 * F[2], 1)
    assert chi(d) == d.square // 2 + 1


@given(grid_classes)
@settings(max_examples=200)
def test_serre_duality(d):
    dual = PicClass(-d.num, 1 - d.eps)
    a, b = coh(d), coh(dual)
    assert (a.h0, a.h1, a.h2) == (b.h2, b.h1, b.h0)


@given(grid_classes)
@settings(max_examples=200)
def test_euler_characteristic(d):
    t = coh(d)
    assert t.h0 - t.h1 + t.h2 == chi(d)


@given(grid_classes)
@settings(max_examples=100)
def test_k3_torsion_symmetry(d):
    twisted = PicClass(d.num, 1 - d.eps)
    assert as_tuple(k3_coh(d)) == as_tuple(k3_coh(twisted))


@pytest.mark.parametrize("l", [1, 3, 5])
def test_odd_multiple_parity(l):
    assert as_tuple(coh(PicClass(l * F[2], 0))) == as_tuple(coh(PicClass(l * F[2], 1)))


def test_nonnegative_entries():
    for coords in [(1, -1, 2, 0, 0, 0, 1, 0, 0, -2), (0, 2, 2, 0, 0, 0, 0, 0, 0, 0)]:
        for eps in (0, 1):
            t = coh(PicClass(NumClass(coords), eps))
            assert t.h0 >= 0 and t.h1 >= 0 and t.h2 >= 0


def test_certify_chain_success():
    f = PicClass(F[1] + E12, 0)
    cert = certify_mult_surjective(f, [PicClass(F[1], 0), PicClass(F[2], 0)])
    assert cert.ok
    assert cert.failing_index is None
    assert len(cert.checks) == 2


def test_certify_empty_parts_is_trivial_success():
    cert = certify_mult_surjective(PicClass(F[1] + E12, 0), [])
    assert cert.ok
    assert cert.checks == ()


def test_certify_failure_carries_first_bad_index():
    # first difference has square -4, so its h1 is 1 on each torsion lift
    # and the chain stops there
    f = PicClass(F[1] + F[2] - F[3] - F[4] + F[5], 0)
    cert = certify_mult_surjective(f, [PicClass(F[5], 0), PicClass(F[6], 0)])
    assert not cert.ok
    assert cert.failing_index == 1
    assert cert.checks == ((PicClass(F[1] + F[2] - F[3] - F[4], 0), 2),)


def test_certify_rejects_non_pencil_part_naming_the_first():
    # F1 + F2 has h0 = 2 on each torsion lift, so 4 on the K3 cover
    bad = PicClass(F[1] + F[2], 0)
    parts = [PicClass(F[1], 0), bad, PicClass(F[1] + F[3], 0), bad]
    with pytest.raises(ValueError, match=f"part {re.escape(str(bad))} is not a pencil"):
        certify_mult_surjective(PicClass(F[1] + E12, 0), parts)


def test_coh_cache_stays_within_its_bound_after_a_sweep():
    bound = coh.cache_info().maxsize
    assert bound is not None
    first = PicClass(NumClass((1,) + (0,) * 9), 0)
    want = coh(first)
    # more distinct classes than the cache holds
    for a in range(-40, 40):
        for b in range(-40, 40):
            coh(PicClass(NumClass((a, b, 1) + (0,) * 7), a & 1))
    assert 6400 > bound
    assert coh.cache_info().currsize <= bound
    # an evicted class is recomputed to the same triple
    assert coh(first) == want


def _sum_over_lifts(d):
    a, b = coh(d), coh(d + CANONICAL)
    return (a.h0 + b.h0, a.h1 + b.h1, a.h2 + b.h2)


# the 55 primitive isotropic classes f1..f10 and D - fi - fj
ISOTROPIC = F[1:] + [
    two_isotropic_generator(i, j) for i in range(1, 10) for j in range(i + 1, 11)
]
isotropic_multiples = st.builds(
    lambda e, l, eps: PicClass(l * e, eps),
    st.sampled_from(ISOTROPIC),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=0, max_value=1),
)


@given(st.one_of(grid_classes, isotropic_multiples))
@settings(max_examples=300)
def test_k3_coh_is_coh_summed_over_both_lifts(d):
    assert as_tuple(k3_coh(d)) == _sum_over_lifts(d)


@pytest.mark.parametrize(
    "num, case",
    [
        (NumClass((0,) * 10), "zero"),
        (F[1] + F[2] - F[3] - F[4], "square -4"),
        (F[1] - F[2], "square -2"),
        (F[1] + F[2], "square 2, effective side"),
        (-(F[1] + F[2]), "square 2, dual side"),
        (3 * F[1] + 2 * E12, "square 24, effective side"),
        (-(3 * F[1] + 2 * E12), "square 24, dual side"),
    ],
)
@pytest.mark.parametrize("eps", [0, 1])
def test_k3_coh_closed_form_cases(num, case, eps):
    d = PicClass(num, eps)
    assert as_tuple(k3_coh(d)) == _sum_over_lifts(d), case


@pytest.mark.parametrize("l", range(-6, 7))
@pytest.mark.parametrize("e", [F[1], F[10], E12, two_isotropic_generator(9, 10)])
def test_k3_coh_of_isotropic_multiples(e, l):
    for eps in (0, 1):
        d = PicClass(l * e, eps)
        assert as_tuple(k3_coh(d)) == _sum_over_lifts(d)
    if l > 0:
        assert as_tuple(k3_coh(d)) == (l + 1, l - 1, 0)
    elif l < 0:
        assert as_tuple(k3_coh(d)) == (0, -l - 1, -l + 1)


def test_h1_driver_leaves_the_coh_cache_untouched():
    # k3_coh is closed form, so a sweep of the driver neither reads nor
    # grows the Enriques-level cache
    types = ["4E1+3E2", "2E1+2E{1,2}", "E1+E2+E3+E4", "3E1+2E2+E3+E{4,5}+K"]
    types += ["2E1+E2+E3+E4+E5+E6", "E1+E{1,2}+E{1,3}", "3E{1,2}+2E1"]
    coh(PicClass(F[1] + F[2], 0))
    before = coh.cache_info()
    for text in types:
        h1_tangent_k3(parse(text))
    assert coh.cache_info() == before
