"""Tests for the twisted-tangent-bundle bounds and moduli fiber dimensions."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriques_invariants import moduli
from enriques_invariants.cohomology import k3_coh
from enriques_invariants.decomposition import (
    ComponentRecord,
    DatabaseError,
    DecompositionType,
    Symbol,
    all_tabulated_components,
    canonical_type,
    component_of,
    components,
    pairing,
    parse,
    realize,
    two_divisible,
    validate_simple,
)
from enriques_invariants.lattice import (
    inner,
    isotropic_generator,
    two_isotropic_generator,
)
from enriques_invariants.moduli import (
    BOUND_TABLE,
    Certificate,
    H1Interval,
    _epsilon_chain,
    _five_candidates,
    alpha,
    beta_bounds,
    enriques_split,
    extendability_cap,
    fiber_dimension,
    fiber_dimension_curves,
    gamma_delta,
    h1_bound_double_cover,
    h1_bound_embedding,
    h1_tangent_k3,
    phi1_family_total,
    phi2_double_family_total,
    phi2_triple_family_total,
)
from enriques_invariants.surface import PicClass

F = [None] + [isotropic_generator(i) for i in range(1, 11)]
E12 = two_isotropic_generator(1, 2)


def half_fiber(i):
    return PicClass(F[i], 0)


# --- alpha -----------------------------------------------------------------


def test_alpha_vanishing_cases():
    assert alpha(PicClass(3 * F[1] + 3 * F[2], 0), half_fiber(1), half_fiber(2)) == 0
    assert (
        alpha(PicClass(2 * F[1] + F[2] + F[3], 0), half_fiber(1), half_fiber(2)) == 0
    )


def test_alpha_counts_negative_square_twists():
    # H - 2F1 of square -4 puts one h1 on each torsion lift
    h = PicClass(2 * F[1] + 3 * F[2] + 3 * F[3] - F[4] - F[5], 0)
    d = PicClass(h.num - 2 * F[1], 0)
    assert d.square == -4
    assert alpha(h, half_fiber(1), half_fiber(2)) == 2


def test_alpha_rejects_bad_half_fibers():
    with pytest.raises(ValueError):
        alpha(PicClass(3 * F[1] + 3 * F[2], 0), PicClass(2 * F[1], 0), half_fiber(2))


# --- beta ------------------------------------------------------------------


def test_beta_examples():
    b = beta_bounds(PicClass(3 * F[1] + 3 * F[2], 0), half_fiber(1), half_fiber(2))
    assert (b.lower, b.upper, b.exact) == (4, 4, True)
    b = beta_bounds(PicClass(4 * F[1] + 3 * F[2], 0), half_fiber(1), half_fiber(2))
    assert (b.lower, b.upper, b.exact) == (2, 2, True)


def test_beta_high_degree_kill():
    # (F1+F2).H = 10 > 8 forces zero
    b = beta_bounds(PicClass(5 * F[1] + 5 * F[2], 0), half_fiber(1), half_fiber(2))
    assert (b.lower, b.upper, b.exact) == (0, 0, True)


def test_beta_trivial_summand_case():
    # B = 0 contributes its one section: lower = k3h0(0) - k3h0(A) = 1
    b = beta_bounds(PicClass(4 * F[1] + 4 * F[2], 0), half_fiber(1), half_fiber(2))
    assert (b.lower, b.upper, b.exact) == (1, 1, True)


# --- double-cover bound ----------------------------------------------------


def test_double_cover_exact_case():
    iv = h1_bound_double_cover(
        PicClass(3 * F[1] + 3 * F[2], 0), half_fiber(1), half_fiber(2)
    )
    assert iv.exact and iv.value == 4


def test_double_cover_inexact_case():
    iv = h1_bound_double_cover(
        PicClass(F[1] + F[2] + F[3] + F[4], 0), half_fiber(1), half_fiber(2)
    )
    assert (iv.lower, iv.upper, iv.exact) == (0, 2, False)


def test_double_cover_exact_implies_alpha_zero():
    iv = h1_bound_double_cover(
        PicClass(4 * F[1] + 4 * F[2], 0), half_fiber(1), half_fiber(2)
    )
    assert iv.exact
    assert dict(iv.certificate.values)["alpha"] == 0


@pytest.mark.parametrize(
    "f1, f2, message",
    [
        (PicClass(2 * F[1], 0), half_fiber(2), "F1 must be primitive"),
        (PicClass(E12, 0), half_fiber(1), "need F1.F2 = 1"),
    ],
    ids=["non-primitive", "pairing-2"],
)
def test_double_cover_checks_its_pair_like_alpha_and_beta(f1, f2, message):
    # the bound checks the pair once, then runs the unchecked helpers
    h = PicClass(3 * F[1] + 3 * F[2], 0)
    for bound in (h1_bound_double_cover, alpha, beta_bounds):
        with pytest.raises(ValueError) as info:
            bound(h, f1, f2)
        assert str(info.value) == message, bound.__name__


# --- gamma/delta and embedding bound ---------------------------------------


def test_gamma_delta_examples():
    gd = gamma_delta(
        PicClass(2 * (F[1] + E12), 0), half_fiber(1), PicClass(E12, 0)
    )
    assert (gd.gamma, gd.delta) == (0, 1)
    assert not gd.h_equals_sum
    gd = gamma_delta(PicClass(2 * F[1] + E12, 0), half_fiber(1), PicClass(E12, 0))
    assert (gd.gamma, gd.delta) == (0, 2)


def test_gamma_delta_degenerate_flag():
    gd = gamma_delta(PicClass(F[1] + E12, 0), half_fiber(1), PicClass(E12, 0))
    assert gd.h_equals_sum


def test_embedding_degenerate_case():
    iv = h1_bound_embedding(
        PicClass(F[1] + E12, 0), half_fiber(1), PicClass(E12, 0)
    )
    assert iv.exact and iv.value == 12


def test_embedding_certified_cases():
    for text, value in (("2E1+2E{1,2}", 3), ("2E1+E{1,2}", 6)):
        d = parse(text)
        h = realize(d)
        cert = _epsilon_chain(d, h, Symbol((1,)), Symbol((1, 2)))
        assert cert.ok
        iv = h1_bound_embedding(h, half_fiber(1), PicClass(E12, 0), epsilon_cert=cert)
        assert iv.exact and iv.value == value


def test_embedding_unknown_corank_is_inconclusive():
    # the corank term is never guessed: no certificate, no upper bound
    iv = h1_bound_embedding(
        PicClass(3 * F[1] + E12, 0), half_fiber(1), PicClass(E12, 0), epsilon_cert=None
    )
    assert not iv.exact
    assert iv.upper is None


def test_embedding_requires_pairing_two():
    with pytest.raises(ValueError):
        h1_bound_embedding(
            PicClass(F[1] + F[2], 0), half_fiber(1), half_fiber(2)
        )


# --- interval type ---------------------------------------------------------


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        H1Interval(3, 2, None)


def test_interval_forces_exact_flag():
    assert H1Interval(2, 2, None).exact
    assert not H1Interval(0, 3, None).exact


def test_interval_value_guard():
    with pytest.raises(ValueError):
        H1Interval(0, 3, None).value


# --- driver ----------------------------------------------------------------


# one instance per pattern row, with its certificate note and aux keys;
# 2E1+3E{1,2} is the mirror of 3E1+2E{1,2} and reads as the same row
PATTERN_INSTANCES = [
    ("E1+E2+E3+E4+E5", "pattern five-transverse via double-cover", ("F1", "F2")),
    ("2E1+E2+E3+E4", "pattern double-anchor via double-cover", ("F1", "F2", "A", "B")),
    ("3E1+E2+E3", "pattern triple-anchor via double-cover", ("F1", "F2", "A", "B")),
    ("5E1+3E2", "pattern five-three via double-cover", ("F1", "F2", "A", "B")),
    ("2E1+E3+E{1,2}", "pattern anchored-link via double-cover", ("F1", "F2", "A", "B")),
    ("E1+E2+E{1,2}", "pattern shared-link via embedding", ("G1", "G2")),
    ("3E1+2E{1,2}", "pattern power-link-32 via embedding", ("G1", "G2")),
    ("2E1+3E{1,2}", "pattern power-link-32 via embedding", ("G1", "G2")),
]


@pytest.mark.parametrize(
    "text, note, aux", PATTERN_INSTANCES, ids=[t for t, *_ in PATTERN_INSTANCES]
)
def test_driver_pattern_instances_vanish(text, note, aux):
    iv = h1_tangent_k3(parse(text))
    assert iv.exact and iv.value == 0
    assert iv.certificate.method == "isotropic-pattern"
    assert iv.certificate.note == note
    assert tuple(k for k, _ in iv.certificate.aux) == aux


def test_driver_pinned_examples():
    assert h1_tangent_k3(parse("2E1+E2+E3+E4")).value == 0
    assert h1_tangent_k3(parse("2E1+2E2+E3")).value == 2
    assert h1_tangent_k3(parse("4E1+2E2")).value == 3


BOUND_ROWS = {
    "4E1+4E2": (1, 1),
    "4E1+3E2": (2, 2),
    "2E1+2E2+2E3": (0, 1),
    "3E1+3E2": (4, 4),
    "2E1+2E2+E3": (2, 2),
    "2E1+2E{1,2}": (3, 3),
    "E1+E2+E3+E4": (0, 2),
    "2E1+E2+E3": (4, 4),
    "E1+E2+E3": (8, 8),
    "E1+E{1,2}": (12, 12),
}


def test_bound_table_contents():
    assert {t for t, *_ in BOUND_TABLE} == set(BOUND_ROWS)


@pytest.mark.parametrize("text,expected", sorted(BOUND_ROWS.items()))
def test_driver_reproduces_bound_table(text, expected):
    iv = h1_tangent_k3(parse(text))
    assert (iv.lower, iv.upper) == expected


@pytest.mark.parametrize("text, pairs", [("2E1+2E2+2E3", 3), ("E1+E2+E3+E4", 6)])
def test_intersection_counts_each_pair_once(text, pairs):
    cert = h1_tangent_k3(parse(text)).certificate
    assert cert.method == "intersection"
    assert cert.values == (("candidates", pairs),)


def test_driver_rejects_invalid_type():
    with pytest.raises(ValueError):
        h1_tangent_k3(parse("E1"))


def test_driver_interval_certificates_are_named():
    iv = h1_tangent_k3(parse("2E1+2E2+E3"))
    assert iv.certificate.method in {
        "double-cover",
        "embedding",
        "isotropic-pattern",
        "closed-form",
        "intersection",
    }


# --- closed forms ----------------------------------------------------------


def test_phi1_closed_form():
    assert phi1_family_total(2) == 16
    assert phi1_family_total(10) == 0
    assert phi1_family_total(15) == 0
    for g in range(2, 26):
        assert phi1_family_total(g) == max(0, 20 - 2 * g)
    with pytest.raises(ValueError):
        phi1_family_total(1)


def test_phi2_double_closed_form():
    assert phi2_double_family_total(2) == 10
    assert phi2_double_family_total(3) == 6
    assert phi2_double_family_total(4) == 3
    assert phi2_double_family_total(7) == 0
    with pytest.raises(ValueError):
        phi2_double_family_total(1)


def test_phi2_double_matches_driver():
    # closed form against the full search, two independent code paths
    for k in range(2, 6):
        iv = h1_tangent_k3(parse(f"{k}E1+2E2"))
        assert iv.exact and iv.value == phi2_double_family_total(k)


def test_phi2_triple_recomputed():
    assert phi2_triple_family_total(2) == 4
    assert phi2_triple_family_total(3) == 0
    assert phi2_triple_family_total(5) == 0
    for k in range(2, 11):
        assert phi2_triple_family_total(k) == (4 if k == 2 else 0)


# --- split and fiber dimensions ---------------------------------------------


def test_split_symmetric():
    comp = component_of(parse("2E1+2E2+E3"))
    s = enriques_split(2, comp)
    assert (s.h1_H, s.h1_HK) == (1, 1)
    assert s.rule == "symmetric-half"


def test_split_golden_pair():
    plus, minus = components(9, 4)
    assert enriques_split(3, plus).h1_H == 3
    assert enriques_split(3, plus).h1_HK == 0
    assert enriques_split(3, minus).h1_H == 0


def test_split_accepts_exact_interval():
    comp = component_of(parse("E1+E2+E3+E4"))
    iv = H1Interval(2, 2, None)
    assert enriques_split(iv, comp) == enriques_split(2, comp)


def test_split_rejects_odd_symmetric_total():
    comp = component_of(parse("2E1+2E2+E3"))
    with pytest.raises(ValueError):
        enriques_split(3, comp)


def test_split_rejects_inexact_interval():
    comp = component_of(parse("2E1+2E2+E3"))
    with pytest.raises(ValueError):
        enriques_split(H1Interval(0, 2, None), comp)


def test_two_divisible_records_have_one_reversed_partner():
    records = list(all_tabulated_components())
    records += [rec for g in range(3, 26) for rec in components(g, 2)]
    records += [components(g, 1)[0] for g in range(2, 26)]
    for rec in records:
        if not two_divisible(rec.dtype):
            assert rec.h1_split == (rec.fiber_dim_chi, rec.fiber_dim_chi), rec.label
            continue
        rows, eps = canonical_type(rec.dtype)
        partners = [
            other
            for other in components(rec.g, rec.phi)
            if canonical_type(other.dtype) == (rows, 1 - eps)
        ]
        assert len(partners) == 1, rec.label
        assert partners[0].h1_split == rec.h1_split[::-1], rec.label


def test_split_without_partner_is_a_database_error():
    # 4E1+4E2 is 2-divisible but has no record in the (9, 4) slice
    lone = ComponentRecord("lone", 9, 4, parse("4E1+4E2"), 1, (1, 0), 1)
    with pytest.raises(DatabaseError):
        enriques_split(1, lone)


def test_split_rejects_partner_that_is_not_the_reverse(monkeypatch):
    plus, minus = components(9, 4)
    skewed = dataclasses.replace(minus, h1_split=(1, 2))
    monkeypatch.setattr(moduli, "components", lambda g, p: [plus, skewed])
    with pytest.raises(ArithmeticError, match="reverse"):
        enriques_split(3, plus)


def test_fiber_dimension_examples():
    assert fiber_dimension(component_of(parse("4E1+3E2"))) == 1
    assert fiber_dimension(components(5, 2)[1]) == 6
    assert fiber_dimension(components(6, 1)[0]) == 4


def _database_records():
    # the 76 records of the component database: the phi >= 3 table and the
    # generated phi = 2 (g = 3..20) and phi = 1 (g = 2..25) families
    recs = list(all_tabulated_components())
    recs += [r for g in range(3, 21) for r in components(g, 2)]
    recs += [r for g in range(2, 26) for r in components(g, 1)]
    return recs


def test_database_has_76_records():
    recs = _database_records()
    assert len(recs) == len({r.label for r in recs}) == 76


@pytest.mark.parametrize("rec", _database_records(), ids=lambda r: r.label)
def test_fiber_dimension_takes_a_relabelled_interval(rec):
    # analyze passes the interval of its input, a relabelling of rec's type
    want = fiber_dimension(rec)
    rng = random.Random(rec.label)
    for _ in range(3):
        perm = rng.sample(range(1, 11), 10)
        order = rng.sample(range(len(rec.dtype.terms)), len(rec.dtype.terms))
        e = _relabel(rec.dtype, perm, order)
        assert fiber_dimension(rec, h1_tangent_k3(e)) == want


@pytest.mark.parametrize("rec", _database_records(), ids=lambda r: r.label)
def test_fiber_dimension_checks_the_interval_it_is_given(rec):
    stored = sum(rec.h1_split)
    off = H1Interval(stored + 2, stored + 2, Certificate("closed-form"))
    with pytest.raises(ArithmeticError):
        fiber_dimension(rec, off)


def test_fiber_dimension_curves_agrees():
    # the forgetful cover is finite, so both maps share fiber dimensions
    for comp in all_tabulated_components():
        assert fiber_dimension_curves(comp) == fiber_dimension(comp)


def test_split_invariant_on_database():
    for comp in all_tabulated_components():
        iv = h1_tangent_k3(comp.dtype)
        a, b = comp.h1_split
        if iv.exact:
            assert a + b == iv.value, comp.label
        else:
            assert iv.lower <= a + b <= iv.upper, comp.label


def test_phi1_lower_bound():
    for g in range(2, 16):
        assert fiber_dimension(components(g, 1)[0]) >= max(0, 10 - g)


def test_phi2_lower_bound():
    for g in range(6, 16):
        for comp in components(g, 2):
            assert fiber_dimension(comp) >= max(0, 8 - g), comp.label
    assert [fiber_dimension(c) for c in components(5, 2)] == [3, 6, 4]


def _cap(comp):
    return extendability_cap(comp, fiber_dimension(comp))


def test_extendability_caps():
    assert _cap(components(9, 4)[0]) == 3
    assert _cap(component_of(parse("3E1+3E2"))) == 2
    minus = [c for c in components(17, 4) if c.label == "E_{17,4}^{(IV)-}"]
    assert _cap(minus[0]) is None


def test_extendability_rejects_low_phi():
    with pytest.raises(ValueError):
        _cap(components(5, 2)[0])


@pytest.mark.parametrize("comp", all_tabulated_components(), ids=lambda c: c.label)
def test_extendability_cap_checks_the_fiber_it_is_given(comp):
    with pytest.raises(ArithmeticError, match="drifted"):
        extendability_cap(comp, comp.fiber_dim_chi + 1)


def _symbols():
    singles = [Symbol((i,)) for i in range(1, 11)]
    return singles + [Symbol((i, j)) for i in range(1, 10) for j in range(i + 1, 11)]


def _transverse_subsets(size):
    syms = _symbols()
    out = []

    def grow(start, chosen):
        if len(chosen) == size:
            out.append(tuple(chosen))
            return
        for t in range(start, len(syms)):
            if all(pairing(syms[t], s) == 1 for s in chosen):
                grow(t + 1, chosen + [syms[t]])

    grow(0, [])
    return out


def _five_candidates_by_loop(picks):
    # the loop the five-transverse search used before its pool became a
    # module constant: rebuild the pool and filter it with inner
    img = [s.realize() for s in picks]
    pool = [isotropic_generator(i) for i in range(1, 11)]
    pool += [
        two_isotropic_generator(i, j) for i in range(1, 10) for j in range(i + 1, 11)
    ]
    return [v for v in pool if all(inner(v, w) == 1 for w in img)]


_FIVE_SUBSETS = _transverse_subsets(5)


def test_five_transverse_subset_count():
    assert len(_FIVE_SUBSETS) == 38682


@pytest.mark.parametrize("size", [1, 2])
def test_five_candidates_match_loop_on_small_picks(size):
    for picks in _transverse_subsets(size):
        assert _five_candidates(list(picks)) == _five_candidates_by_loop(picks)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FIVE_SUBSETS))
def test_five_candidates_match_loop(picks):
    assert _five_candidates(list(picks)) == _five_candidates_by_loop(picks)


def _epsilon_chain_by_loop(d, h, s1, s2):
    # reference oracle: every block count from the largest down, three
    # summand orders each; 0 when some attempt certifies, else None
    def sym_class(s):
        return PicClass(s.realize(), 0)

    w = sym_class(s1) + sym_class(s2)
    rem = {s: c for c, s in d.terms}
    rem[s1] -= 1
    rem[s2] -= 1
    others = []
    for c, s in d.terms:
        if s not in (s1, s2):
            others.extend([s] * c)
    for blocks in range(min(rem[s1], rem[s2]), -1, -1):
        left1 = rem[s1] - blocks
        left2 = rem[s2] - blocks
        orders = [
            others + [s1] * left1 + [s2] * left2,
            [s1] * left1 + [s2] * left2 + others,
            others + [s2] * left2 + [s1] * left1,
        ]
        for order in orders:
            accum = w
            ok = True
            for _ in range(blocks):
                accum = accum + w
            for sym in order:
                p = sym_class(sym)
                if k3_coh(accum - p).h1 != 0:
                    ok = False
                    break
                accum = accum + p
            if ok:
                assert accum.num == h.num
                return 0
    return None


@st.composite
def _simple_types(draw):
    singles = draw(st.lists(st.integers(1, 10), min_size=1, max_size=7, unique=True))
    pair = st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True)
    pairs = draw(st.lists(pair.map(sorted).map(tuple), min_size=1, max_size=2, unique=True))
    syms = [Symbol((i,)) for i in singles] + [Symbol(p) for p in pairs]
    terms = tuple((draw(st.integers(1, 4)), s) for s in syms)
    d = DecompositionType(terms, draw(st.integers(0, 1)))
    assume(validate_simple(d)[0])
    return d


def _assert_chain_matches_loop(d):
    h = realize(d)
    syms = [s for _, s in d.terms]
    for s1 in syms:
        for s2 in syms:
            if s1 == s2 or pairing(s1, s2) != 2:
                continue
            cert = _epsilon_chain(d, h, s1, s2)
            assert cert.ok == (_epsilon_chain_by_loop(d, h, s1, s2) == 0)
            assert cert.ok == all(v == 0 for _, v in cert.checks)


# a pairing-2 link needs a pair symbol E{i,j}
@pytest.mark.parametrize("text", [t for t, *_ in BOUND_TABLE if "E{" in t])
def test_epsilon_chain_matches_loop_on_bound_table(text):
    _assert_chain_matches_loop(parse(text))


@settings(max_examples=200, deadline=None)
@given(_simple_types())
def test_epsilon_chain_matches_loop(d):
    _assert_chain_matches_loop(d)


def _relabel(d, perm, order):
    # S10 relabelling i -> perm[i - 1] of every index, then the terms in order
    terms = [(c, Symbol(tuple(sorted(perm[i - 1] for i in s.indices)))) for c, s in d.terms]
    return DecompositionType(tuple(terms[k] for k in order), d.eps)


def _label_or_missing(d):
    try:
        return component_of(d).label
    except DatabaseError:
        return None


@settings(max_examples=150, deadline=None)
@given(_simple_types(), st.permutations(range(1, 11)), st.data())
def test_driver_and_lookup_invariant_under_relabelling(d, perm, data):
    order = data.draw(st.permutations(range(len(d.terms))))
    e = _relabel(d, perm, order)
    a, b = h1_tangent_k3(d), h1_tangent_k3(e)
    assert (a.lower, a.upper) == (b.lower, b.upper)
    assert _label_or_missing(d) == _label_or_missing(e)


def _assignments_by_permutations(d, mins, links, pure):
    # the slot search before backtracking: every k-permutation of the
    # term indices, filtered by coefficient minimums and pairings
    syms = [s for _, s in d.terms]
    coeffs = [c for c, _ in d.terms]
    n, k = len(syms), len(mins)
    if pure and n != k:
        return []
    pair = {(a, b): pairing(syms[a], syms[b]) for a in range(n) for b in range(n)}
    need = {(i, j): 2 if (i, j) in links else 1 for i in range(k) for j in range(i + 1, k)}
    out = []
    for slots in itertools.permutations(range(n), k):
        if any(coeffs[slots[i]] < mins[i] for i in range(k)):
            continue
        if all(pair[slots[i], slots[j]] == w for (i, j), w in need.items()):
            out.append([syms[t] for t in slots])
    return out


def _random_simple_types(rng, n, count):
    # n terms: up to two pair symbols E{i,j}, the rest single symbols, in a
    # random term order, coefficients 1..5; only the simple ones are kept
    out = []
    pairs = list(itertools.combinations(range(1, 11), 2))
    while len(out) < count:
        k = rng.randint(0, min(2, n))
        if n - k > 10:
            continue
        syms = [Symbol((i,)) for i in rng.sample(range(1, 11), n - k)]
        syms += [Symbol(p) for p in rng.sample(pairs, k)]
        rng.shuffle(syms)
        d = DecompositionType(
            tuple((rng.randint(1, 5), s) for s in syms), rng.randint(0, 1)
        )
        if validate_simple(d)[0]:
            out.append(d)
    return out


@pytest.mark.parametrize("n", range(2, 11))
def test_assignments_match_the_permutation_filter(n):
    # the oracle walks all n!/(n-k)! slot tuples, so fewer types for large n
    types = _random_simple_types(random.Random(n), n, 12 if n <= 7 else 4)
    for d in types:
        for _, mins, links, pure, _ in moduli._PATTERNS:
            got = list(moduli._assignments(d, mins, links, pure))
            assert got == _assignments_by_permutations(d, mins, links, pure), d.text


def test_assignments_keep_lexicographic_slot_order():
    # both E3 and E2 could take the second double-anchor slot after 2E1;
    # term 0 (E3) comes first, and with it the certificate's F2
    d = parse("E3+E2+2E1+E4")
    first = next(moduli._assignments(d, *moduli._PATTERNS[1][1:4]))
    assert [s.text for s in first] == ["E1", "E3", "E2", "E4"]
    iv = h1_tangent_k3(d)
    assert iv.certificate.note == "pattern double-anchor via double-cover"
    assert dict(iv.certificate.aux)["F2"] == str(half_fiber(3))


def test_realize_is_the_sum_of_its_terms():
    rng = random.Random(7)
    for n in range(2, 11):
        for d in _random_simple_types(rng, n, 5):
            num = sum((c * s.realize() for c, s in d.terms), F[1] - F[1])
            assert realize(d) == PicClass(num, d.eps), d.text
            assert realize(d) is realize(d)
