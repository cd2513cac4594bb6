"""Sheaf cohomology of line bundles on an unnodal Enriques surface.

For a divisor class D with D.D = 2d the Riemann-Roch theorem reads
chi(D) = d + 1, and on an unnodal surface Kawamata-Viehweg style vanishing
pins down every cohomology group:

  * h1(D) = h1(D + K) = 0 unless D.D <= -4 or D is numerically a multiple
    l*E of an isotropic class with l >= 2 (or <= -2 on the dual side);
  * for D.D <= -2 neither D nor D + K is effective and
    h1 = -D.D/2 - 1 carries all of chi;
  * for D = l*E0 + eps*K on the effective side, the two torsion lifts of
    the half-fiber multiples have h0 = floor(l/2) + 1 (eps = 0) and
    ceil(l/2) (eps = 1): sections accumulate through the elliptic pencil
    |2E0| one lift at a time;
  * everything anti-effective is handled through Serre duality
    h^i(D) = h^{2-i}(K - D).

coh is that procedure, total on every integral class.  k3_coh, the
cohomology of the pullback to the K3 cover, is coh summed over the two
torsion lifts, in closed form from D.D, D.Delta and the divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import DELTA, divisibility, inner, square_and_degree
from .surface import CANONICAL, PicClass


@dataclass(frozen=True)
class CohTriple:
    h0: int
    h1: int
    h2: int


def chi(d: PicClass) -> int:
    """Euler characteristic D.D/2 + 1 (Riemann-Roch, K numerically trivial)."""
    return d.square // 2 + 1


# serves the Enriques-level queries (enriques coh) and coh's own Serre-dual
# step only; k3_coh does not go through it.  It stays a bounded lru_cache
# because the benchmark reads coh.cache_info()
@lru_cache(maxsize=4096)
def coh(d: PicClass) -> CohTriple:
    """Exact (h0, h1, h2) of the line bundle O(D)."""
    sq = inner(d.num, d.num)
    if not d.num:
        if d.eps == 0:
            return CohTriple(1, 0, 0)
        return CohTriple(0, 0, 1)  # h2(K) = h0(O) by duality
    if sq <= -2:
        return CohTriple(0, -sq // 2 - 1, 0)
    side = inner(d.num, DELTA)
    # sq >= 0 and d != 0 forces side != 0: the orthogonal complement of the
    # gauge class is negative definite
    if side < 0:
        dual = coh(CANONICAL - d)
        return CohTriple(dual.h2, dual.h1, dual.h0)
    if sq == 0:
        l = divisibility(d.num)
        h0 = l // 2 + 1 if d.eps == 0 else (l + 1) // 2
        return CohTriple(h0, h0 - 1, 0)
    return CohTriple(sq // 2 + 1, 0, 0)


def k3_coh(d: PicClass) -> CohTriple:
    """Cohomology of the pullback of O(D) to the universal K3 cover.

    The pushforward of the structure sheaf splits off both torsion lifts,
    so each h^i is coh(d).h^i + coh(d + K).h^i.  Independent of d.eps.
    For the numerical class x that sum is, by coh's cases:
      * x = 0: (1, 0, 0) + (0, 0, 1);
      * x.x <= -2: twice (0, -x.x/2 - 1, 0);
      * x.x > 0: twice (x.x/2 + 1, 0, 0) when x.Delta > 0;
      * x = l*E0, l the gcd: h0 = floor(l/2) + 1 and ceil(l/2) with
        h1 = h0 - 1 each, so (l + 1, l - 1, 0) when x.Delta > 0;
    and Serre duality swaps h0 and h2 when x.Delta < 0 (x.Delta = 0 only
    for x = 0 once x.x >= 0).
    """
    x = d.num
    if not x:
        return CohTriple(1, 0, 1)
    sq, side = square_and_degree(x)
    if sq <= -2:
        return CohTriple(0, -sq - 2, 0)
    l = divisibility(x) if sq == 0 else 1  # a positive square acts as l = 1
    top, h1 = sq + l + 1, l - 1
    return CohTriple(top, h1, 0) if side > 0 else CohTriple(0, h1, top)


@dataclass(frozen=True)
class MultCert:
    """Outcome of a chained surjectivity certification.

    checks lists the classes whose h1 was required to vanish, in order,
    with the computed value; failing_index is the 1-based position of the
    first nonzero one (None on success).
    """

    ok: bool
    checks: tuple[tuple[PicClass, int], ...]
    failing_index: int | None = None


def certify_mult_surjective(
    f: PicClass, parts: tuple[PicClass, ...] | list[PicClass]
) -> MultCert:
    """Certify surjectivity of mu: H0(F) x H0(G) -> H0(F + G), G = sum(parts),
    on the K3 cover.

    Splitting G into pencil summands G_1, ..., G_n reduces surjectivity to
    the vanishing h1(F + G_1 + ... + G_{i-1} - G_i) = 0 for every i; each
    step is one pencil multiplication.  Every part must be a pencil class
    (h0 = 2) on the cover, checked once per distinct part; the caller
    vouches for base-point-freeness (automatic for the elliptic pencils
    the moduli driver uses).
    """
    parts = tuple(parts)
    # an empty product leaves mu the identity, trivially surjective
    for p in dict.fromkeys(parts):
        if k3_coh(p).h0 != 2:
            raise ValueError(f"part {p} is not a pencil class on the K3 cover")
    checks: list[tuple[PicClass, int]] = []
    accum = f
    for i, p in enumerate(parts, start=1):
        probe = accum - p
        h1 = k3_coh(probe).h1
        checks.append((probe, h1))
        if h1 != 0:
            return MultCert(False, tuple(checks), failing_index=i)
        accum = accum + p
    return MultCert(True, tuple(checks))
