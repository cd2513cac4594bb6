"""Tests for decomposition-type parsing, canonicalization, and the component database."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques_invariants import decomposition
from enriques_invariants.decomposition import (
    ComponentRecord,
    DatabaseError,
    DecompositionType,
    ParseError,
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
from enriques_invariants.surface import genus, phi


def test_parse_plain():
    d = parse("2E1+2E2+E3")
    assert d.terms == ((2, Symbol((1,))), (2, Symbol((2,))), (1, Symbol((3,))))
    assert d.eps == 0


def test_parse_torsion_mark():
    assert parse("4E1+4E2+K").eps == 1
    assert parse("4E1+4E2").eps == 0


def test_parse_pair_symbol():
    d = parse("E1+E{1,2}")
    assert d.terms == ((1, Symbol((1,))), (1, Symbol((1, 2))))


def test_parse_alternate_pair_spelling():
    # unbraced and reversed spellings normalize to the braced sorted form
    assert parse("E1,2+E3") == parse("E{1,2}+E3")
    assert parse("E{2,1}") == parse("E{1,2}")
    assert "E{1,2}" in parse("E1,2+2E3").text


def test_parse_whitespace_insensitive():
    assert parse(" 2E1 + E2 ") == parse("2E1+E2")


@pytest.mark.parametrize(
    "bad",
    ["", "0E1", "E0", "E11", "E1+E1", "E1+", "2(E1+E2)", "K+E1", "E1+K+K", "E{1,1}"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("E1+")
    assert "position" in str(exc.value)


def test_pairing_rules():
    assert pairing(Symbol((1,)), Symbol((2,))) == 1
    assert pairing(Symbol((1,)), Symbol((1, 2))) == 2
    assert pairing(Symbol((3,)), Symbol((1, 2))) == 1
    assert pairing(Symbol((1, 2)), Symbol((3, 4))) == 2
    assert pairing(Symbol((1, 2)), Symbol((1, 3))) == 1


def test_pairing_matches_realized_classes():
    from enriques_invariants.lattice import inner

    # all 55 symbols, every ordered pair, the diagonal (s == t -> 0) included
    syms = [Symbol((i,)) for i in range(1, 11)]
    syms += [Symbol(ij) for ij in itertools.combinations(range(1, 11), 2)]
    assert len(syms) == 55
    for s, t in itertools.product(syms, repeat=2):
        assert pairing(s, t) == inner(s.realize(), t.realize()), (s, t)


def test_validate_shapes():
    ok, _ = validate_simple(parse("E1+E2+E3+E4"))
    assert ok
    ok, _ = validate_simple(parse("2E1+E{1,2}"))
    assert ok
    ok, msg = validate_simple(parse("+".join(f"E{i}" for i in range(1, 10))))
    assert not ok and "nine" in msg
    ok, _ = validate_simple(parse("+".join(f"E{i}" for i in range(1, 11))))
    assert ok
    ok, msg = validate_simple(parse("3E1"))
    assert not ok


def test_validate_two_links_shape():
    # two pairing-2 incidences through one shared symbol
    ok, msg = validate_simple(parse("E1+E2+E{1,2}"))
    assert ok and "two" in msg


def test_realize_examples():
    h = realize(parse("E1+E2+E{1,2}"))
    assert h.square == 10
    assert genus(h) == 6
    h2 = realize(parse("2E1+2E{1,2}"))
    assert h2.square == 16
    assert genus(h2) == 9
    assert realize(parse("E1")).square == 0


def test_realize_torsion():
    assert realize(parse("E1+E2+K")).eps == 1


def test_canonical_examples():
    assert canonical_type(parse("2E1+E2+E3")) == canonical_type(parse("2E3+E1+E2"))
    assert canonical_type(parse("3E1+E{1,2}")) != canonical_type(parse("3E1+2E2"))
    assert canonical_type(parse("4E1+2E2")) != canonical_type(parse("4E1+2E2+K"))


def _apply_permutation(d: DecompositionType, perm: dict) -> DecompositionType:
    terms = tuple(
        (c, Symbol(tuple(sorted(perm[i] for i in s.indices)))) for c, s in d.terms
    )
    return DecompositionType(terms, d.eps)


VALID_TYPES = [
    "E1+E2",
    "2E1+E2+E3",
    "4E1+3E2",
    "E1+E{1,2}",
    "2E1+2E{1,2}",
    "3E1+2E2+E{1,2}",
    "E1+E2+E3+E4+E5",
    "2E1+E3+E{1,2}",
]


@given(
    st.sampled_from(VALID_TYPES),
    st.randoms(use_true_random=False),
    st.integers(min_value=0, max_value=1),
)
@settings(max_examples=80, deadline=None)
def test_canonical_permutation_invariant(text, rng, eps):
    d = DecompositionType(parse(text).terms, eps)
    ids = list(range(1, 11))
    shuffled = ids[:]
    rng.shuffle(shuffled)
    perm = dict(zip(ids, shuffled))
    assert canonical_type(_apply_permutation(d, perm)) == canonical_type(d)


def _brute_force_equivalent(a: DecompositionType, b: DecompositionType) -> bool:
    # literal search over index relabelings; usable because types touch few indices
    if a.eps != b.eps or len(a.terms) != len(b.terms):
        return False
    idx_a = sorted({i for _, s in a.terms for i in s.indices})
    idx_b = sorted({i for _, s in b.terms for i in s.indices})
    if len(idx_a) != len(idx_b):
        return False
    for image in itertools.permutations(idx_b):
        perm = dict(zip(idx_a, image))
        mapped = {
            (c, tuple(sorted(perm[i] for i in s.indices))) for c, s in a.terms
        }
        if mapped == {(c, s.indices) for c, s in b.terms}:
            return True
    return False


@pytest.mark.parametrize("ta", VALID_TYPES)
@pytest.mark.parametrize("tb", VALID_TYPES)
def test_canonical_agrees_with_brute_force(ta, tb):
    a, b = parse(ta), parse(tb)
    assert (canonical_type(a) == canonical_type(b)) == _brute_force_equivalent(a, b)


def test_two_divisible():
    assert two_divisible(parse("4E1+2E2"))
    assert two_divisible(parse("2E1+2E{1,2}"))
    assert not two_divisible(parse("2E1+2E2+E3"))
    # divisibility lives in the torsion-free quotient; the K mark rides along
    assert two_divisible(parse("4E1+2E2+K"))


def test_components_g9_phi4():
    got = components(9, 4)
    assert [c.label for c in got] == ["E_{9,4}^+", "E_{9,4}^-"]
    assert got[0].dtype == parse("2E1+2E{1,2}")
    assert got[1].dtype.eps == 1


def test_components_g5_phi2():
    labels = [c.label for c in components(5, 2)]
    assert labels == ["E_{5,2}^{(I)}", "E_{5,2}^{(II)+}", "E_{5,2}^{(II)-}"]


def test_components_g8_phi3():
    got = components(8, 3)
    assert len(got) == 1
    assert got[0].dtype == parse("2E1+E3+E{1,2}")


def test_components_phi1_always_single():
    for g in range(2, 30):
        got = components(g, 1)
        assert len(got) == 1
        assert got[0].dtype == parse(f"{g - 1}E1+E2" if g > 2 else "E1+E2")


def test_components_phi2_family_spells_its_types():
    # the g >= 10 family records are built from terms, not parsed; they must
    # be the types the family rule names
    for g in range(10, 40):
        k = (g - 1) // 2
        if g % 2 == 0:
            want = [("", f"{(g - 2) // 2}E1+E2+E3")]
        elif k % 2 == 1:
            want = [("^{(I)}", f"{k}E1+E{{1,2}}"), ("^{(II)}", f"{k}E1+2E2")]
        else:
            want = [
                ("^{(I)}", f"{k}E1+E{{1,2}}"),
                ("^{(II)+}", f"{k}E1+2E2"),
                ("^{(II)-}", f"{k}E1+2E2+K"),
            ]
        got = [(r.label, r.dtype) for r in components(g, 2)]
        assert got == [(f"E_{{{g},2}}{s}", parse(t)) for s, t in want]


def test_components_phi2_count_rule():
    # 1 for g=3 and even g; 2 when (g-1)/2 is odd; 3 when (g-1)/2 is even
    for g in range(3, 26):
        got = components(g, 2)
        if g == 3 or g % 2 == 0:
            assert len(got) == 1
        elif ((g - 1) // 2) % 2 == 1:
            assert len(got) == 2
        else:
            assert len(got) == 3


def test_components_uncovered_errors():
    with pytest.raises(DatabaseError):
        components(26, 5)
    with pytest.raises(DatabaseError):
        components(11, 3)
    with pytest.raises(DatabaseError):
        components(1, 1)


def test_component_of_examples():
    assert component_of(parse("3E2+4E1")).label == "E_{13,3}^{(II)}"
    assert component_of(parse("E1+E2+E3")).label == "E_{4,2}"


def test_component_of_untabulated_raises():
    with pytest.raises(DatabaseError):
        component_of(parse("5E1+5E2"))


def test_all_records_recompute_their_row():
    records = decomposition._records()
    assert len({rec.label for rec in records}) == len(records)
    # the public listing keeps to the 22 records of the embedding regime
    embedding = all_tabulated_components()
    assert {r.phi for r in embedding} == {3, 4} and len(embedding) == 22
    for rec in records:
        h = realize(rec.dtype)
        assert genus(h) == rec.g, rec.label
        assert phi(h).value == rec.phi, rec.label


def test_generated_records_recompute_their_row():
    for g in range(2, 15):
        for p in (1, 2):
            if p == 2 and g < 3:
                continue
            for rec in components(g, p):
                h = realize(rec.dtype)
                assert genus(h) == g, rec.label
                assert phi(h).value == p, rec.label


def test_canonical_idempotent():
    for text in VALID_TYPES:
        sig = canonical_type(parse(text))
        assert sig == canonical_type(parse(text))
