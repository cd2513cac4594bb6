"""Simple isotropic decompositions of polarization classes.

A polarization H on an Enriques surface can be written, after choosing a
suitable isotropic sequence, as a nonnegative combination of primitive
isotropic classes of two kinds: the sequence members themselves (symbols
E1, ..., E10, pairwise pairing 1) and classes of the form D - fi - fj
(symbols E{i,j}, pairing 2 with Ei and Ej and 1 with the rest).  Such an
expression is "simple" when its symbol multiset has one of three shapes:

  1. no pairing-2 link at all, with n != 9 symbols;
  2. exactly one pairing-2 link, with n != 10 symbols;
  3. exactly two pairing-2 links sharing a common symbol.

The shape plus the coefficient multiset plus the torsion bit determines
the class up to the lattice symmetries, which is why equality of the
canonical form below decides when two expressions name the same moduli
component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from .lattice import NumClass, isotropic_generator, two_isotropic_generator
from .surface import PicClass, phi as _phi


class ParseError(ValueError):
    """Syntax or well-formedness error, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DatabaseError(LookupError):
    """The component database does not cover the requested slice."""


@dataclass(frozen=True)
class Symbol:
    """E<i> (one index) or E{<i>,<j>} (two indices, stored increasing)."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        ix = self.indices
        if len(ix) not in (1, 2):
            raise ValueError("a symbol has one or two indices")
        if not all(1 <= k <= 10 for k in ix):
            raise ValueError("symbol indices must be in 1..10")
        if len(ix) == 2 and ix[0] >= ix[1]:
            raise ValueError("pair indices must be distinct and increasing")

    @property
    def text(self) -> str:
        if len(self.indices) == 1:
            return f"E{self.indices[0]}"
        return "E{%d,%d}" % self.indices

    def realize(self) -> NumClass:
        if len(self.indices) == 1:
            return isotropic_generator(self.indices[0])
        return two_isotropic_generator(*self.indices)


def pairing(s: Symbol, t: Symbol) -> int:
    """Intersection number of two symbols, computed combinatorially.

    Single-single: 1.  Single-pair: 2 when the index is a member of the
    pair, else 1.  Pair-pair: 1 when the index sets overlap, 2 when they
    are disjoint.  Matches the lattice pairing of the realized classes.
    """
    a, b = s.indices, t.indices
    if a == b:
        return 0
    if len(a) == 1:
        if len(b) == 1:
            return 1
        return 2 if a[0] in b else 1
    if len(b) == 1:
        return 2 if b[0] in a else 1
    return 1 if a[0] in b or a[1] in b else 2


@dataclass(frozen=True)
class DecompositionType:
    """Ordered terms (coefficient, symbol) plus the torsion bit."""

    terms: tuple[tuple[int, Symbol], ...]
    eps: int = 0

    def __post_init__(self) -> None:
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        seen = set()
        for c, s in self.terms:
            if c < 1:
                raise ValueError("coefficients must be positive")
            if s in seen:
                raise ValueError(f"duplicate symbol {s.text}")
            seen.add(s)

    @property
    def text(self) -> str:
        parts = [(f"{c}" if c > 1 else "") + s.text for c, s in self.terms]
        if self.eps:
            parts.append("K")
        return " + ".join(parts)


def parse(text: str) -> DecompositionType:
    """Parse a decomposition expression.

    Grammar: term ('+' term)* ('+' 'K')? where a term is an optional
    positive coefficient followed by E<i>, E{<i>,<j>} or the shorthand
    E<i>,<j>.  Whitespace is insignificant.  Duplicate symbols and zero
    coefficients are rejected; no distributive sugar like 2(...) exists.
    """
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_int(i: int) -> tuple[int, int]:
        start = i
        while i < n and text[i].isdigit():
            i += 1
        if i == start:
            raise ParseError("expected a number", start)
        return int(text[start:i]), i

    def make_symbol(ix: tuple[int, ...], at: int) -> Symbol:
        try:
            return Symbol(tuple(sorted(ix)) if len(ix) == 2 else ix)
        except ValueError as exc:
            raise ParseError(str(exc), at) from None

    terms: list[tuple[int, Symbol]] = []
    seen: set[Symbol] = set()
    eps = 0
    i = skip_ws(0)
    if i == n:
        raise ParseError("empty expression", 0)
    while True:
        i = skip_ws(i)
        start = i
        if i < n and text[i] == "K":
            if not terms:
                raise ParseError("need at least one symbol term before K", i)
            eps = 1
            i = skip_ws(i + 1)
            if i < n:
                raise ParseError("K must be the last addend", i)
            break
        coeff = 1
        if i < n and text[i].isdigit():
            coeff, i = read_int(i)
            if coeff == 0:
                raise ParseError("zero coefficient", start)
            i = skip_ws(i)
        if i >= n or text[i] != "E":
            raise ParseError("expected a symbol E<i> or E{i,j}", i)
        i = skip_ws(i + 1)
        if i < n and text[i] == "{":
            i = skip_ws(i + 1)
            a, i = read_int(i)
            i = skip_ws(i)
            if i >= n or text[i] != ",":
                raise ParseError("expected ',' inside E{i,j}", i)
            i = skip_ws(i + 1)
            b, i = read_int(i)
            i = skip_ws(i)
            if i >= n or text[i] != "}":
                raise ParseError("expected '}' closing E{i,j}", i)
            i += 1
            sym = make_symbol((a, b), start)
        else:
            if i >= n or not text[i].isdigit():
                raise ParseError("expected an index after E", i)
            a, i = read_int(i)
            j = skip_ws(i)
            if j < n and text[j] == ",":
                j = skip_ws(j + 1)
                if j >= n or not text[j].isdigit():
                    raise ParseError("expected an index after ','", j)
                b, j = read_int(j)
                sym = make_symbol((a, b), start)
                i = j
            else:
                sym = make_symbol((a,), start)
        if sym in seen:
            raise ParseError(f"duplicate symbol {sym.text}", start)
        seen.add(sym)
        terms.append((coeff, sym))
        i = skip_ws(i)
        if i == n:
            break
        if text[i] != "+":
            raise ParseError("expected '+'", i)
        i += 1
        if skip_ws(i) == n:
            raise ParseError("dangling '+'", i)
    return DecompositionType(tuple(terms), eps)


def realize(d: DecompositionType) -> PicClass:
    num = NumClass.zero()
    for c, s in d.terms:
        num = num + c * s.realize()
    return PicClass(num, d.eps)


def validate_simple(d: DecompositionType) -> tuple[bool, str]:
    """Check the three admissible shapes; returns (ok, diagnosis)."""
    n = len(d.terms)
    if n < 2:
        return False, "single-symbol expressions realize to square 0, not a polarization"
    syms = [s for _, s in d.terms]
    links = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if pairing(syms[i], syms[j]) == 2
    ]
    if not links:
        if n == 9:
            return False, "nine pairwise-transverse symbols is not an admissible shape"
        return True, "ok: pairwise-transverse symbols"
    if len(links) == 1:
        if n == 10:
            return False, "ten symbols with a pairing-2 link is not an admissible shape"
        return True, "ok: one pairing-2 link"
    if len(links) == 2:
        a, b = links
        if set(a) & set(b):
            return True, "ok: two pairing-2 links through a common symbol"
        return False, "two disjoint pairing-2 links is not an admissible shape"
    return False, "more than two pairing-2 links is not an admissible shape"


def canonical_type(d: DecompositionType):
    """Relabeling invariant: two types get equal values iff some bijection
    of their symbols preserves coefficients and pairwise pairings (and the
    torsion bits agree)."""
    rows = []
    for c, s in d.terms:
        profile = sorted((pairing(s, t), ct) for ct, t in d.terms if t != s)
        rows.append((c, tuple(profile)))
    return tuple(sorted(rows)), d.eps


def two_divisible(d: DecompositionType) -> bool:
    """True when the realized numerical class is divisible by 2.

    Exactly then do the two torsion lifts H and H + K land in different
    moduli components, so the eps bit is part of the component identity.
    """
    return all(c % 2 == 0 for c in realize(d).num.coords)


# ---------------------------------------------------------------------------
# component database


@dataclass(frozen=True)
class ComponentRecord:
    """One irreducible component of the moduli space of polarized surfaces.

    fiber_dim_chi is the general fiber dimension of the period-type map to
    the moduli of genus-g curves; h1_split = (h1 for H, h1 for H + K) is
    the split of the K3 tangent-twist h1 between the two torsion lifts;
    extendability_cap only applies in the embedding regime phi >= 3.
    """

    label: str
    g: int
    phi: int
    dtype: DecompositionType
    fiber_dim_chi: int
    h1_split: tuple[int, int]
    extendability_cap: int | None

    @cached_property
    def canonical(self):
        """canonical_type(self.dtype), computed on first use and kept on
        the record.  The database records live for the whole process, so
        each is put in canonical form once; a family record built for one
        lookup is dropped with its form."""
        return canonical_type(self.dtype)


@lru_cache(maxsize=None)
def _records() -> tuple[ComponentRecord, ...]:
    """Every record of data/components.tsv, in file order."""
    raw = (
        resources.files(__package__).joinpath("data/components.tsv").read_text()
    )
    recs = []
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, g, phi_v, dtype, fiber, h1h, h1hk, cap = line.split("\t")
        recs.append(
            ComponentRecord(
                label=label,
                g=int(g),
                phi=int(phi_v),
                dtype=parse(dtype),
                fiber_dim_chi=int(fiber),
                h1_split=(int(h1h), int(h1hk)),
                extendability_cap=None if cap == "-" else int(cap),
            )
        )
    return tuple(recs)


_E1, _E2, _E3, _E12 = Symbol((1,)), Symbol((2,)), Symbol((3,)), Symbol((1, 2))


def _phi1_record(g: int) -> ComponentRecord:
    fiber = max(0, 10 - g)
    dtype = DecompositionType(((g - 1, _E1), (1, _E2)))
    return ComponentRecord(
        f"E_{{{g},1}}", g, 1, dtype, fiber, (fiber, fiber), None
    )


def _phi2_records(g: int) -> list[ComponentRecord]:
    """phi = 2, g >= 10: the map is generically finite, so every fiber is 0.

    Even g has the one type kE1+E2+E3; odd g has kE1+E{1,2} and kE1+2E2,
    the latter split into two torsion lifts when k is even.
    """
    if g % 2 == 0:
        types = [("", DecompositionType((((g - 2) // 2, _E1), (1, _E2), (1, _E3))))]
    else:
        k = (g - 1) // 2
        two = ((k, _E1), (2, _E2))
        types = [("^{(I)}", DecompositionType(((k, _E1), (1, _E12))))]
        if k % 2 == 1:
            types.append(("^{(II)}", DecompositionType(two)))
        else:
            types.append(("^{(II)+}", DecompositionType(two)))
            types.append(("^{(II)-}", DecompositionType(two, 1)))
    return [
        ComponentRecord(f"E_{{{g},2}}{suffix}", g, 2, dtype, 0, (0, 0), None)
        for suffix, dtype in types
    ]


def all_tabulated_components() -> tuple[ComponentRecord, ...]:
    """Every phi >= 3 component record, in database order."""
    return tuple(r for r in _records() if r.phi >= 3)


def components(g: int, phi_value: int) -> list[ComponentRecord]:
    """All tabulated moduli components for the slice (g, phi).

    phi = 1 covers every g >= 2 and phi = 2 every g >= 3 (1, 2 or 3
    components depending on g mod 4); higher phi is available exactly for
    the published ranges (g <= 10, 13, 17).  phi = 1 and phi = 2 with
    g >= 10 are family rules; every other slice is read from
    data/components.tsv.  A 2-divisible type comes as two records, one per
    torsion lift, whose h1 splits are each other's reverse (enriques_split
    checks this against the eps-flipped partner).  Anything else raises
    DatabaseError: the database is deliberately partial, not a classification
    that no component exists.
    """
    if phi_value == 1:
        if g < 2:
            raise DatabaseError("phi = 1 components start at genus 2")
        return [_phi1_record(g)]
    if phi_value == 2:
        if g < 3:
            raise DatabaseError("phi = 2 components start at genus 3")
        if g >= 10:
            return _phi2_records(g)
    recs = [r for r in _records() if r.g == g and r.phi == phi_value]
    if not recs:
        raise DatabaseError(
            f"no tabulated components for (g, phi) = ({g}, {phi_value})"
        )
    return recs


def component_of(d: DecompositionType) -> ComponentRecord:
    """Identify the moduli component a valid decomposition type belongs to.

    Matching is by canonical form; when the realized class is not
    2-divisible the torsion bit is quotiented out (H and H + K then lie in
    the same component).  Raises DatabaseError when the slice or the type
    is not tabulated.
    """
    ok, why = validate_simple(d)
    if not ok:
        raise ValueError(why)
    h = realize(d)
    sq = h.square
    if sq < 2:
        raise ValueError("decomposition must realize to a class of square >= 2")
    g = sq // 2 + 1
    p = _phi(h).value
    rows, eps = canonical_type(d)
    for rec in components(g, p):
        rec_rows, rec_eps = rec.canonical
        if rec_rows != rows:
            continue
        if two_divisible(rec.dtype):
            if rec_eps == eps:
                return rec
        else:
            return rec
    raise DatabaseError(f"type {d.text!r} not found among components of (g, phi) = ({g}, {p})")
