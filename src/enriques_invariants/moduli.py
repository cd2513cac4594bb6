"""Fiber dimensions of the period-type moduli maps.

For a polarized unnodal Enriques surface (S, H) of genus g the derivative
of the map to the moduli of genus-g curves is controlled by
h1(T_X(-H~)) on the covering K3 surface X, and that number splits between
the two torsion lifts H, H + K as the fiber dimensions of the map on the
corresponding moduli components.  Two geometric constructions bound the
K3 number exactly in terms of lattice data:

  * double cover: a pair of half-fibers F1, F2 with F1.F2 = 1 maps X 2:1
    to the quadric P1 x P1; pulling the twisted tangent sequence through
    the cover gives h1 <= alpha + beta with equality when alpha = 0, where
    alpha collects four line-bundle h1's and beta is the sectional count
    of a bundle on the branch curve, squeezed by beta_bounds below;

  * embedding: a pair G1, G2 with G1.G2 = 2 embeds X by |G1~ + G2~| as a
    complete intersection of three quadrics in P5 (degenerating to the
    double cover of a quadric when H = G1 + G2, where the answer is 12);
    the normal-bundle sequence gives
    3*delta <= h1 <= epsilon + 6*gamma + 3*delta, exact iff the
    multiplication corank epsilon is certified zero and gamma = 0.

epsilon is never guessed: it is only accepted from a
certify_mult_surjective chain of pencil multiplications (each surjective
when one h1 vanishes) started from a multiple of the degree-8 class
(G1 + G2)~, whose section ring is generated in degree one; without a
certified chain the interval stays open above.

Seven rows of containment patterns of decomposition symbols force the K3
number to vanish (the mirror of the power-link row is no row of its own,
see _PATTERNS); their replays below re-verify every required vanishing
numerically against the actual class rather than trusting the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_

from .lattice import NumClass, divisibility, inner, isotropic_generator
from .lattice import square_and_degree
from .surface import PicClass, enumerate_isotropic, is_nef
from .cohomology import MultCert, certify_mult_surjective, k3_coh
from .decomposition import (
    _SYMBOLS,
    ComponentRecord,
    DatabaseError,
    DecompositionType,
    Symbol,
    components,
    pairing,
    parse,
    realize,
    two_divisible,
    validate_simple,
)


@dataclass(frozen=True)
class Certificate:
    """How an h1 interval was obtained.

    method is one of double-cover, embedding, isotropic-pattern,
    closed-form, intersection; aux names the auxiliary classes
    and values the numeric ingredients (alpha, beta, gamma, delta,
    epsilon bounds and friends).
    """

    method: str
    aux: tuple[tuple[str, str], ...] = ()
    values: tuple[tuple[str, int], ...] = ()
    note: str = ""


@dataclass(frozen=True)
class H1Interval:
    """Certified interval for an h1; upper = None means unbounded above.

    exact is derived, never passed: it holds when upper equals lower.
    """

    lower: int
    upper: int | None
    exact: bool = field(init=False)
    certificate: Certificate

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError("negative lower bound")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError("empty interval")
        object.__setattr__(
            self, "exact", self.upper is not None and self.upper == self.lower
        )

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("interval is not exact")
        return self.lower


def _sym_class(s: Symbol) -> PicClass:
    return PicClass(s.realize(), 0)


def _check_half_fiber(e: PicClass, name: str) -> None:
    sq, side = square_and_degree(e.num)
    if not e.num or sq != 0:
        raise ValueError(f"{name} must be a nonzero isotropic class")
    if divisibility(e.num) != 1:
        raise ValueError(f"{name} must be primitive")
    if side <= 0:  # is_effective on a nonzero isotropic class
        raise ValueError(f"{name} must be effective")


def _check_pair(
    h: PicClass, a: PicClass, b: PicClass, names: tuple[str, str], k: int
) -> None:
    """The checks both routes share: a and b, called names in the messages,
    are half-fiber classes with a.b = k, and H is big and nef."""
    _check_half_fiber(a, names[0])
    _check_half_fiber(b, names[1])
    if inner(a.num, b.num) != k:
        raise ValueError(f"need {names[0]}.{names[1]} = {k}")
    sq, side = square_and_degree(h.num)
    if sq <= 0 or side <= 0:  # is_nef on a class of positive square
        raise ValueError("H must be big and nef")


# ---------------------------------------------------------------------------
# double-cover route


def alpha(h: PicClass, f1: PicClass, f2: PicClass) -> int:
    """Defect of the double-cover computation.

    The sum h1(H - 2F1) + h1(H - 2F1 + K) + h1(H - 2F2) + h1(H - 2F2 + K);
    when it vanishes the cover computes h1 of the twisted K3 tangent
    bundle on the nose.  F1, F2 must be half-fiber classes with F1.F2 = 1
    and H big and nef.
    """
    _check_pair(h, f1, f2, ("F1", "F2"), 1)
    return _alpha(h, f1, f2)


def _alpha(h: PicClass, f1: PicClass, f2: PicClass) -> int:
    """alpha on a pair that already passed _check_pair."""
    return k3_coh(h - 2 * f1).h1 + k3_coh(h - 2 * f2).h1


@dataclass(frozen=True)
class BetaBounds:
    lower: int
    upper: int
    exact: bool
    branch_twist: PicClass | None  # A = 2F1 + 2F2 - H
    section_twist: PicClass | None  # B = 4F1 + 4F2 - H


def beta_bounds(h: PicClass, f1: PicClass, f2: PicClass) -> BetaBounds:
    """Bounds for beta, the h0 of the correction bundle on the branch curve.

    The branch curve of the double cover lies in |2F1~ + 2F2~| and the
    bundle restricted to it has degree 4*(8 - (F1 + F2).H), so beta = 0
    once (F1 + F2).H > 8.  Otherwise, with A = 2F1 + 2F2 - H and
    B = 4F1 + 4F2 - H, restriction squeezes beta between
    h0(B~) - h0(A~) and that plus h1(A~), exact when h1(A~) = 0.
    """
    _check_pair(h, f1, f2, ("F1", "F2"), 1)
    return _beta_bounds(h, f1, f2)


def _beta_bounds(h: PicClass, f1: PicClass, f2: PicClass) -> BetaBounds:
    """beta_bounds on a pair that already passed _check_pair."""
    if inner((f1 + f2).num, h.num) > 8:
        return BetaBounds(0, 0, True, None, None)
    a = 2 * f1 + 2 * f2 - h
    b = 4 * f1 + 4 * f2 - h
    ka = k3_coh(a)
    kb = k3_coh(b)
    low = kb.h0 - ka.h0
    # multiplying by the section cutting the branch curve embeds H0(A~)
    # into H0(B~), so the difference cannot be negative
    if low < 0:
        raise ArithmeticError("section count dropped along an inclusion")
    return BetaBounds(low, low + ka.h1, ka.h1 == 0, a, b)


def h1_bound_double_cover(h: PicClass, f1: PicClass, f2: PicClass) -> H1Interval:
    """K3 tangent-twist h1 through the double cover of P1 x P1.

    h1 <= alpha + beta always, and h1 = beta when alpha = 0; combined with
    beta_bounds this gives an interval, exact when alpha = 0 and the beta
    bounds close up.  The pair is checked once, as alpha and beta_bounds
    would check it.
    """
    _check_pair(h, f1, f2, ("F1", "F2"), 1)
    a = _alpha(h, f1, f2)
    bb = _beta_bounds(h, f1, f2)
    aux = [("F1", str(f1)), ("F2", str(f2))]
    if bb.branch_twist is not None:
        aux.append(("A", str(bb.branch_twist)))
        aux.append(("B", str(bb.section_twist)))
    values = (
        ("alpha", a),
        ("beta_lower", bb.lower),
        ("beta_upper", bb.upper),
    )
    cert = Certificate("double-cover", tuple(aux), values)
    if a == 0:
        return H1Interval(bb.lower, bb.upper, cert)
    return H1Interval(0, a + bb.upper, cert)


# ---------------------------------------------------------------------------
# embedding route


@dataclass(frozen=True)
class GammaDelta:
    gamma: int
    delta: int
    h_equals_sum: bool


def gamma_delta(h: PicClass, g1: PicClass, g2: PicClass) -> GammaDelta:
    """gamma = h1 of (H - G1 - G2)~ and delta = h0 of (2G1 + 2G2 - H)~.

    G1, G2 must be half-fiber classes with G1.G2 = 2 and G1 + G2 nef; the
    flag reports the degenerate case H = G1 + G2 numerically, where the
    embedding collapses and the caller must use the constant answer 12.
    """
    _check_pair(h, g1, g2, ("G1", "G2"), 2)
    w = g1 + g2
    if not is_nef(w):
        raise ValueError("G1 + G2 must be nef")
    return GammaDelta(
        gamma=k3_coh(h - w).h1,
        delta=k3_coh(2 * w - h).h0,
        h_equals_sum=h.num == w.num,
    )


def h1_bound_embedding(
    h: PicClass,
    g1: PicClass,
    g2: PicClass,
    epsilon_cert: MultCert | None = None,
) -> H1Interval:
    """K3 tangent-twist h1 through the three-quadrics embedding by |W~|,
    W = G1 + G2.

    Exact constant 12 when H = W numerically.  Otherwise the interval is
    [3*delta, epsilon + 6*gamma + 3*delta]: the lower bound holds because
    the relevant coboundary is injective once H != W, and the upper needs
    an epsilon bound.  epsilon_cert is a chain certificate from
    _epsilon_chain: when it is ok, epsilon = 0; when it is None or failed,
    no finite upper bound is claimed.
    """
    gd = gamma_delta(h, g1, g2)
    aux = (("G1", str(g1)), ("G2", str(g2)))
    if gd.h_equals_sum:
        cert = Certificate(
            "embedding", aux, (("gamma", gd.gamma), ("delta", gd.delta)),
            note="degenerate: H equals G1 + G2, constant answer",
        )
        return H1Interval(12, 12, cert)
    lower = 3 * gd.delta
    values = (("gamma", gd.gamma), ("delta", gd.delta))
    if epsilon_cert is None or not epsilon_cert.ok:
        cert = Certificate(
            "embedding", aux, values,
            note="multiplication corank not certified, no upper bound",
        )
        return H1Interval(lower, None, cert)
    cert = Certificate("embedding", aux, values + (("epsilon_upper", 0),))
    return H1Interval(lower, 6 * gd.gamma + lower, cert)


def _epsilon_chain(
    d: DecompositionType, h: PicClass, s1: Symbol, s2: Symbol
) -> MultCert:
    """Chain certificate for epsilon = 0 on the G-pair (s1, s2) of d.

    epsilon is the corank of H0(W~) x H0((H-W)~) -> H0(H~).  Writing
    H - W in the remaining decomposition symbols, the multiplication is
    chained one summand at a time: copies of W itself are ring-generation
    steps for the base-point-free degree-8 class W~ (always surjective,
    the section ring of W~ being generated in degree one), so the chain
    starts from (b + 1) * W, b = min(c1, c2) - 1 for the coefficients c1,
    c2 of s1, s2, and each pencil summand is one step of
    certify_mult_surjective: the other symbols first, then the leftover
    copies of s1, then those of s2.

    This one order always certifies.  In a simple type the links share a
    symbol, so with s1.s2 = 2 every other symbol o has o.o' = 1 for the
    other symbols o' != o and W.o in {2, 3}.  Expanding the squares,
    every probe X = start + (earlier parts) - p then has X.X >= -2, and
    X.X = 0 only at b = 0, where X is W - o with X.s1 = 1 or X is s1 or
    s2 itself; either way X is primitive.  coh gives h1(X) = 0 on both
    torsion lifts in all these cases, so every step is surjective.  The
    certificate is returned whether or not it is ok; h1_bound_embedding
    reads a failed one as no upper bound.
    """
    w = _sym_class(s1) + _sym_class(s2)
    rem = {s: c for c, s in d.terms}
    rem[s1] -= 1
    rem[s2] -= 1
    blocks = min(rem[s1], rem[s2])
    order = [s for c, s in d.terms if s not in (s1, s2) for _ in range(c)]
    order += [s1] * (rem[s1] - blocks) + [s2] * (rem[s2] - blocks)
    start = (blocks + 1) * w
    parts = [_sym_class(sym) for sym in order]
    if sum((p.num for p in parts), start.num) != h.num:
        raise ArithmeticError("chain parts do not sum to H")
    return certify_mult_surjective(start, parts)


def _pair_bound(d: DecompositionType, h: PicClass, s: Symbol, t: Symbol) -> H1Interval:
    """Bound through the symbol pair (s, t) of d: the double cover for a
    transverse pair, the embedding with its epsilon chain for a linked one."""
    if pairing(s, t) == 1:
        return h1_bound_double_cover(h, _sym_class(s), _sym_class(t))
    eps = _epsilon_chain(d, h, s, t)
    return h1_bound_embedding(h, _sym_class(s), _sym_class(t), eps)


# ---------------------------------------------------------------------------
# vanishing patterns

# One row per pattern: (name, mins, links, pure, tries).  mins are the slot
# coefficient minimums, links the slot pairs that must pair to 2 (all other
# slot pairs must pair to 1), and a pure pattern must use up the whole type.
# tries are the slot pairs the replay bounds through _pair_bound, in order;
# five-transverse has None, because its F's are not slots and come from
# _replay_five.  The mirror power-link row (2, 3) is not listed: its picks
# are the reversed picks of power-link-32 and the embedding bound depends
# only on W = G1 + G2.
_SlotPairs = tuple[tuple[int, int], ...]
_PATTERNS: tuple[tuple[str, tuple[int, ...], _SlotPairs, bool, _SlotPairs | None], ...] = (
    ("five-transverse", (1, 1, 1, 1, 1), (), False, None),
    ("double-anchor", (2, 1, 1, 1), (), False, ((0, 1), (0, 2), (0, 3))),
    ("triple-anchor", (3, 1, 1), (), False, ((0, 1), (0, 2))),
    ("five-three", (5, 3), (), False, ((0, 1),)),
    ("anchored-link", (2, 1, 1), ((0, 2),), False, ((0, 1),)),
    ("shared-link", (1, 1, 1), ((0, 2), (1, 2)), False, ((0, 2), (1, 2))),
    ("power-link-32", (3, 2), ((0, 1),), True, ((0, 1),)),
)


def _assignments(d: DecompositionType, mins, links, pure):
    """Symbol lists filling the pattern's slots, by pruned backtracking.

    A slot's bit mask holds the terms it may take: coefficient >= mins[j],
    pairing as needed (2 on a link, else 1) with each placed term, so no
    placed term (a term pairs 0 with itself).  A branch leaving a later
    slot no term, or the later slots fewer terms than slots, is cut.  Bits
    are read low to high, so the filtered permutations(range(n), k) come
    in the same lexicographic order: the first exact bound is unchanged.
    """
    terms = d.terms
    n, k = len(terms), len(mins)
    if n < k or (pure and n != k):
        return
    # bit u of twos[t] (ones[t]) is set when terms t and u pair to 2 (to 1)
    twos = [sum(1 << u for u, p in enumerate(row) if p == 2) for row in d.gram]
    ones = [((1 << n) - 1) ^ w ^ (1 << t) for t, w in enumerate(twos)]
    linked = [[(j, i) in links for i in range(j + 1, k)] for j in range(k)]
    slots: list[int] = []

    def fill(masks: list[int]):
        j = len(slots)
        m = masks[0]
        while m:
            low = m & -m
            m ^= low
            t = low.bit_length() - 1
            if j + 1 == k:
                yield [terms[s][1] for s in slots] + [terms[t][1]]
                continue
            rest = [a & (twos[t] if l else ones[t]) for a, l in zip(masks[1:], linked[j])]
            if all(rest) and reduce(or_, rest).bit_count() >= k - j - 1:
                slots.append(t)
                yield from fill(rest)
                slots.pop()

    yield from fill([sum(1 << t for t, (c, _) in enumerate(terms) if c >= m) for m in mins])


# The five-transverse search draws its F's from a fixed pool of 55 classes,
# the realizations of the 55 symbols: f1..f10, then D - fi - fj for i < j in
# lexicographic order.  The order decides which pair is tried first, and so
# the certificate.  Bit n of _FIVE_TRANSVERSE[s] is set when _FIVE_POOL[n]
# pairs to 1 with the realization of s; the pairing is symmetric, so each
# pair of pool members is paired once.
_FIVE_POOL = tuple(s.realize() for s in _SYMBOLS.values())
_masks = [0] * len(_FIVE_POOL)
for _m, _n in combinations(range(len(_FIVE_POOL)), 2):
    if inner(_FIVE_POOL[_m], _FIVE_POOL[_n]) == 1:
        _masks[_m] |= 1 << _n
        _masks[_n] |= 1 << _m
_FIVE_TRANSVERSE = dict(zip(_SYMBOLS.values(), _masks))
del _masks, _m, _n


def _five_candidates(picks: list[Symbol]) -> list[NumClass]:
    """Pool members pairing to 1 with every pick, in pool order."""
    mask = (1 << len(_FIVE_POOL)) - 1
    for s in picks:
        mask &= _FIVE_TRANSVERSE[s]
    return [v for m, v in enumerate(_FIVE_POOL) if mask >> m & 1]


def _replay_five(d: DecompositionType, h: PicClass, picks: list[Symbol]) -> H1Interval | None:
    # the pool and its pairings with the symbols are the module constants
    # _FIVE_POOL and _FIVE_TRANSVERSE above; only the selection runs here
    cands = _five_candidates(picks)
    if len(cands) < 2:
        # widen the pool: every isotropic class pairing at most 2 with H
        # per coefficient has bounded pairing with H
        img = [s.realize() for s in picks]
        kmax = 2 * sum(c for c, _ in d.terms)
        seen = {v.coords for v in cands}
        for v in enumerate_isotropic(h, kmax):
            if v.coords in seen:
                continue
            if all(inner(v, w) == 1 for w in img):
                cands.append(v)
        if len(cands) < 2:
            return None
    tried = 0
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            if inner(cands[i], cands[j]) != 1:
                continue
            iv = h1_bound_double_cover(
                h, PicClass(cands[i], 0), PicClass(cands[j], 0)
            )
            tried += 1
            if iv.exact:
                return iv
            if tried >= 40:
                return None
    return None


def _pattern_scan(d: DecompositionType, h: PicClass) -> H1Interval | None:
    for name, mins, links, pure, tries in _PATTERNS:
        for picks in _assignments(d, mins, links, pure):
            if tries is None:
                iv = _replay_five(d, h, picks)
            else:
                bounds = (_pair_bound(d, h, picks[i], picks[j]) for i, j in tries)
                iv = next((b for b in bounds if b.exact), None)
            if iv is not None:
                found = iv.certificate
                cert = Certificate(
                    "isotropic-pattern",
                    found.aux,
                    found.values,
                    note=f"pattern {name} via {found.method}",
                )
                return H1Interval(iv.lower, iv.upper, cert)
    return None


# ---------------------------------------------------------------------------
# generator-pair bounds, the golden bound table and family closed forms

# golden bound table for the tangent-twist h1 on the K3 cover, checked by
# verify-tables and the tests and never read by the driver; the "<=" rows
# are the two where the bounding technique does not close up
BOUND_TABLE: tuple[tuple[str, str, int], ...] = (
    ("4E1+4E2", "=", 1),
    ("4E1+3E2", "=", 2),
    ("2E1+2E2+2E3", "<=", 1),
    ("3E1+3E2", "=", 4),
    ("2E1+2E2+E3", "=", 2),
    ("2E1+2E{1,2}", "=", 3),
    ("E1+E2+E3+E4", "<=", 2),
    ("2E1+E2+E3", "=", 4),
    ("E1+E2+E3", "=", 8),
    ("E1+E{1,2}", "=", 12),
)


def phi1_family_total(g: int) -> int:
    """K3 tangent-twist h1 total for the genus-g degree-2-pencil family
    (g-1)E1 + E2: the count 20 - 2g of missing quadric conditions, floored
    at 0 (for g >= 11 the correction term 2g - 20 fills it back exactly)."""
    if g < 2:
        raise ValueError("family starts at genus 2")
    return max(0, 20 - 2 * g)


def phi2_double_family_total(k: int) -> int:
    """K3 tangent-twist h1 total for the family kE1 + 2E2, k >= 2:
    max(0, 15 - 3k), plus 1 exactly at k = 2 where the restriction
    coboundary acquires a one-dimensional corank.  The extra constant is
    geometric input; the verification suite pins the family values."""
    if k < 2:
        raise ValueError("family starts at k = 2")
    return max(0, 15 - 3 * k) + (1 if k == 2 else 0)


def phi2_triple_family_total(k: int) -> int:
    """K3 tangent-twist h1 total for kE1 + E2 + E3, k >= 2, recomputed
    through the double-cover bound (never looked up) and checked against
    the pinned values 4 (k = 2) and 0 (k >= 3)."""
    if k < 2:
        raise ValueError("family starts at k = 2")
    d = parse(f"{k}E1+E2+E3")
    h = realize(d)
    iv = h1_bound_double_cover(
        h,
        PicClass(isotropic_generator(1), 0),
        PicClass(isotropic_generator(2), 0),
    )
    expected = 4 if k == 2 else 0
    if not iv.exact or iv.value != expected:
        raise ArithmeticError(
            f"triple family recomputation drifted at k = {k}: {iv}"
        )
    return iv.value


def _closed_form(d: DecompositionType) -> H1Interval | None:
    if len(d.terms) != 2:
        return None
    if d.gram[0][1] != 1:
        return None
    (c1, _), (c2, _) = d.terms
    a, b = sorted((c1, c2))
    if a == 1:
        value = phi1_family_total(b + 1)
        label = f"{b}E+E', genus {b + 1}"
    elif a == 2 or b == 2:
        k = b if a == 2 else a
        value = phi2_double_family_total(k)
        label = f"{k}E+2E'"
    else:
        return None
    cert = Certificate("closed-form", values=(("total", value),), note=label)
    return H1Interval(value, value, cert)


def h1_tangent_k3(d: DecompositionType) -> H1Interval:
    """Best certified interval for the twisted tangent h1 on the K3 cover.

    Strategies in order: the seven vanishing-pattern rows of _PATTERNS,
    then _pair_bound on every generator pair in term order, then the
    family closed forms.  _pair_bound is the one place a pair's bound is
    chosen (double cover for a transverse pair, embedding for a linked
    one), for the pattern replays and the pair search alike.  The first
    exact result wins, and no later pair is tried; otherwise every pair
    bound is intersected.  A closed form that falls outside the
    independently derived bounds raises, by design.
    """
    ok, why = validate_simple(d)
    if not ok:
        raise ValueError(why)
    h = realize(d)
    if h.square < 2:
        raise ValueError("type must realize to a polarization of square >= 2")
    found = _pattern_scan(d, h)
    if found is not None:
        return found
    collected: list[H1Interval] = []
    for s, t in combinations([sym for _, sym in d.terms], 2):
        cand = _pair_bound(d, h, s, t)
        if cand.exact:
            return cand
        collected.append(cand)
    cf = _closed_form(d)
    if cf is not None:
        for c in collected:
            if cf.value < c.lower or (c.upper is not None and cf.value > c.upper):
                raise ArithmeticError(
                    "closed form disagrees with derived bounds for " + d.text
                )
        return cf
    if not collected:
        raise ArithmeticError("no bounding strategy applies to " + d.text)
    lower = max(c.lower for c in collected)
    uppers = [c.upper for c in collected if c.upper is not None]
    upper = min(uppers) if uppers else None
    if upper is not None and upper < lower:
        raise ArithmeticError("derived bounds are inconsistent for " + d.text)
    methods = sorted({c.certificate.method for c in collected})
    cert = Certificate(
        "intersection",
        values=(("candidates", len(collected)),),
        note="tightest of: " + ", ".join(methods),
    )
    return H1Interval(lower, upper, cert)


# ---------------------------------------------------------------------------
# splitting between the torsion lifts, fiber dimensions, extendability


@dataclass(frozen=True)
class EnriquesSplit:
    """h1 of the tangent twist for H and for H + K on the surface itself."""

    h1_H: int
    h1_HK: int
    rule: str  # "symmetric-half" | "golden"


def _eps_partner(comp: ComponentRecord) -> ComponentRecord:
    """The record of comp's slice with the same type and the other torsion lift."""
    rows, eps = comp.canonical
    for rec in components(comp.g, comp.phi):
        if rec.canonical == (rows, 1 - eps):
            return rec
    raise DatabaseError(f"2-divisible component {comp.label} has no eps-flipped partner")


def enriques_split(total: H1Interval | int, comp: ComponentRecord) -> EnriquesSplit:
    """Distribute the K3 h1 total over the two torsion lifts.

    The total must be exact when given as an interval.  When the
    polarization is not 2-divisible in the numerical lattice the two
    lifts are interchangeable and the total splits in halves (an odd
    total is therefore an arithmetic impossibility and raises).  For a
    2-divisible class the lifts sit in different components and the split
    is the one stored in comp, checked against its eps-flipped partner
    (the record of the same slice and type with the other torsion bit),
    whose stored split must be the reverse; a zero total forces (0, 0).
    """
    if isinstance(total, H1Interval):
        if not total.exact:
            raise ValueError("the split needs an exact K3 total")
        total = total.value
    if total < 0:
        raise ValueError("negative total")
    if not two_divisible(comp.dtype):
        if total % 2:
            raise ValueError("symmetric split needs an even total")
        return EnriquesSplit(total // 2, total // 2, "symmetric-half")
    if total == 0:
        return EnriquesSplit(0, 0, "golden")
    a, b = comp.h1_split
    partner = _eps_partner(comp)
    if partner.h1_split != (b, a):
        raise ArithmeticError(
            f"split {a}+{b} of {comp.label} is not the reverse of"
            f" {partner.label}'s {partner.h1_split}"
        )
    if a + b != total:
        raise ArithmeticError(
            f"tabulated split {a}+{b} disagrees with total {total} for {comp.label}"
        )
    return EnriquesSplit(a, b, "golden")


def fiber_dimension(comp: ComponentRecord, iv: H1Interval | None = None) -> int:
    """General fiber dimension of the period-type map on this component.

    Recomputes the K3 total from the decomposition type, or takes it as
    iv: the h1_tangent_k3 interval of comp's type or of an S10 relabelling
    of it (a renumbering of E1..E10), which has the same bounds.  If the
    interval is exact it must agree with the stored split, otherwise the
    stored total must at least fall inside it.  Any mismatch raises
    loudly.
    """
    return _fiber_split(comp, iv).h1_H


def _fiber_split(comp: ComponentRecord, iv: H1Interval | None) -> EnriquesSplit:
    """fiber_dimension's checks; returns the split they verified, whose
    h1_H is the fiber dimension."""
    if iv is None:
        iv = h1_tangent_k3(comp.dtype)
    stored = comp.h1_split[0] + comp.h1_split[1]
    if iv.exact:
        if iv.value != stored:
            raise ArithmeticError(
                f"recomputed K3 total {iv.value} != stored {stored} for {comp.label}"
            )
        total = iv.value
    else:
        if stored < iv.lower or (iv.upper is not None and stored > iv.upper):
            raise ArithmeticError(
                f"stored K3 total {stored} outside computed bounds for {comp.label}"
            )
        total = stored
    split = enriques_split(total, comp)
    if (split.h1_H, split.h1_HK) != comp.h1_split:
        raise ArithmeticError(f"split rule disagrees with stored split for {comp.label}")
    if split.h1_H != comp.fiber_dim_chi:
        raise ArithmeticError(f"fiber dimension drifted for {comp.label}")
    return split


def fiber_dimension_curves(comp: ComponentRecord) -> int:
    """Fiber dimension of the composite map to the moduli of curves.

    The forgetful cover from the moduli of genus-g Prym-canonical curves
    is finite, so the composite has the same general fiber dimension.
    """
    return fiber_dimension(comp)


def extendability_cap(comp: ComponentRecord, fiber: int) -> int | None:
    """Largest N with (S, H) extendable to a nondegenerate N-step tower.

    Only meaningful in the embedding regime phi >= 3; the cap equals the
    fiber dimension when positive and is None when the fiber dimension
    vanishes (no nontrivial extension).  fiber is comp's fiber dimension
    as fiber_dimension computed it; the cap derived from it must equal the
    stored one.
    """
    if comp.phi < 3:
        raise ValueError("extendability caps apply to phi >= 3 components only")
    cap = None if fiber == 0 else fiber
    if cap != comp.extendability_cap:
        raise ArithmeticError(f"extendability cap drifted for {comp.label}")
    return cap
