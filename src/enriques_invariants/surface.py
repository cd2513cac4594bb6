"""Divisor classes on an unnodal Enriques surface.

Pic splits as Num x Z/2: a class is a numerical class plus a torsion bit
recording whether the canonical class K (numerically trivial, 2K = 0) has
been added.  On an unnodal surface, one with no smooth rational curves,
effectivity and nefness are decided by lattice data alone:

  * the zero class is effective, K is not;
  * a class of negative square is never effective;
  * a nonzero class of square >= 0 is effective iff it pairs positively
    with the positive cone (we gauge against D, D.D = 10), regardless of
    the torsion bit;
  * every effective class is nef.

The phi invariant of a big nef class H is min E.H over primitive isotropic
effective E.  It is read off the W(E10) chamber (lattice.reduce_to_chamber):
E10 has one cusp (Vinberg 1975), so the primitive isotropic effective
classes are exactly the classes w.f10 for w in the Weyl group W, and for a
dominant y, y.(w.f10) >= y.f10 with equality exactly on the orbit of f10
under the stabilizer of y (Kac, Infinite-dimensional Lie algebras, ch. 3).
phi's docstring has the proof.

isotropic_slices finds the primitive isotropic classes with bounded pairing,
one slice H.x = k at a time, by an exact ellipsoid enumeration in the rank-9
negative-definite orthogonal complement of H, done in integers.  Once per
H, the complement basis is LLL-reduced (Lenstra-Lenstra-Lovasz 1982, in
the integral form of Cohen, GTM 138, Alg. 2.6.7), and the leading minors
d_k and integral Gram-Schmidt coefficients lambda_kj that the reduction
ends with are the fraction-free factorization of the complement form.  A
Fincke-Pohst search then scales every quantity at its nodes to a common
denominator.  It recurses over the six outer coordinates and runs the last
three as one loop nest, where almost all of its nodes are.  It carries
each point as one packed integer, the ten coordinates in lanes of a fixed
width: a lane bound proved from H alone (|x_j| <= 16 kmax (H.D)/(H.H))
makes packed solutions sort as their coordinate vectors and decode
exactly; _SliceEnumerator has the proof.  Imprimitive solutions are found
as multiples of earlier slices' packed ones, not by a gcd, and each slice
is decoded in one call into a flat tuple of coordinates.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from operator import mul

from .lattice import (
    COORDS_FORMAT,
    DELTA,
    RANK,
    NumClass,
    divisibility,
    from_pairings,
    gram_times,
    inner,
    reduce_to_chamber,
)


@dataclass(frozen=True)
class PicClass:
    """A Picard class: numerical part plus torsion bit eps in {0, 1}."""

    num: NumClass
    eps: int = 0

    def __post_init__(self) -> None:
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.num + other.num, self.eps ^ other.eps)

    def __sub__(self, other: "PicClass") -> "PicClass":
        # -K = K in Pic, so the torsion bits just xor
        return PicClass(self.num - other.num, self.eps ^ other.eps)

    def __neg__(self) -> "PicClass":
        return PicClass(-self.num, self.eps)

    def __mul__(self, k: int) -> "PicClass":
        if not isinstance(k, int):
            return NotImplemented
        return PicClass(k * self.num, (k * self.eps) % 2)

    __rmul__ = __mul__

    @property
    def square(self) -> int:
        return inner(self.num, self.num)

    def __str__(self) -> str:
        return _PIC_FORMAT % (*self.num.coords, self.eps)


_PIC_FORMAT = "pic[" + COORDS_FORMAT + ";%d]"


CANONICAL = PicClass(NumClass.zero(), 1)


def genus(h: PicClass) -> int:
    """Sectional genus H.H/2 + 1 of a polarization (requires H.H >= 2)."""
    sq = h.square
    if sq < 2:
        raise ValueError(f"genus needs square >= 2, got {sq}")
    return sq // 2 + 1


def is_effective(d: PicClass) -> bool:
    if not d.num:
        return d.eps == 0
    if inner(d.num, d.num) < 0:
        return False
    return inner(d.num, DELTA) > 0


def is_nef(d: PicClass) -> bool:
    """On an unnodal surface the nef cone and effective cone coincide."""
    return is_effective(d)


def half_fiber_form(d: PicClass) -> tuple[int, NumClass, int] | None:
    """Recognize d as l*E0 + eps*K with E0 primitive isotropic effective.

    Returns (l, E0, eps) for l >= 1, or None when d is not numerically a
    positive multiple of an effective isotropic class.  E0 and E0 + K are
    the two half-fibers of the elliptic pencil |2E0|.
    """
    if not d.num or inner(d.num, d.num) != 0:
        return None
    l = divisibility(d.num)
    e0 = NumClass._of(tuple([c // l for c in d.num.coords]))
    if inner(e0, DELTA) < 0:
        return None
    return l, e0, d.eps


@dataclass(frozen=True)
class PhiResult:
    value: int
    witness: PicClass


# ---------------------------------------------------------------------------
# exact enumeration of isotropic classes with bounded pairing


def _solve_linear_form(w: tuple[int, ...]) -> tuple[int, list[int], list[list[int]]]:
    """Integer solution theory for the form w.x.

    Returns (g, x0, kernel) with g = +-gcd(w), w.x0 = g, and kernel a basis
    of the rank-(RANK-1) sublattice {x : w.x = 0}.  Built by folding xgcd
    over the coordinates; each fold keeps w.sol = running gcd.  A
    coordinate whose weight repeats an earlier one, w_i = w_j with j < i,
    contributes e_i - e_j instead: the running gcd divides w_j, so this is
    the fold's vector for i up to earlier kernel vectors, and it is short.
    Those vectors come first, which leaves the LLL reduction of the kernel
    less to do.
    """
    sol = [0] * RANK
    short: list[list[int]] = []
    kernel: list[list[int]] = []
    first: dict[int, int] = {}
    g = 0
    for i in range(RANK):
        wi = w[i]
        ei = [0] * RANK
        ei[i] = 1
        j = first.setdefault(wi, i)
        if wi and j < i:
            ei[j] = -1
            short.append(ei)
            continue
        if g == 0:
            if wi == 0:
                kernel.append(ei)
            else:
                if wi < 0:
                    ei[i] = -1
                    wi = -wi
                g, sol = wi, ei
            continue
        if wi == 0:
            kernel.append(ei)
            continue
        gg, u, v = _xgcd(g, wi)
        # u*g + v*wi = gg, so u*sol + v*ei solves w.x = gg
        new_sol = [u * a + v * b for a, b in zip(sol, ei)]
        # (wi/gg)*sol - (g/gg)*ei pairs to zero with w
        kernel.append([(wi // gg) * a - (g // gg) * b for a, b in zip(sol, ei)])
        g, sol = gg, new_sol
    if g == 0:
        raise ValueError("zero form")
    return g, sol, short + kernel


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _reduce_basis(
    basis: list[list[int]],
) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """LLL-reduce a basis under the form N(x, y) = -x.G.y (Cohen, Alg. 2.6.7).

    Integral LLL with delta = 3/4 (Lenstra-Lenstra-Lovasz 1982), in
    integers only.  b[k] is size-reduced against every earlier vector
    before the Lovasz test, so a swap moves down a vector that is already
    reduced against the ones below it.  Returns (b, d, lam) for the reduced
    basis b: d[k] is the Gram determinant of b[0..k-1] (d[0] = 1), and for
    j < k, lam[k][j] = d[j+1] * mu_kj is the integral Gram-Schmidt
    coefficient.
    On return |2 lam[k][j]| <= d[j+1] (size reduction) and
    4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2 (Lovasz condition).
    Every division is exact.  The input list is not modified.

    Raises ArithmeticError unless N is positive definite on the span: when
    index k is first reached, b[0..k] spans what the input's first k + 1
    vectors span, so d[k+1] is the input's leading minor (Sylvester), and
    swaps keep every d positive.
    """
    b = list(basis)
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    k, kmax = 0, -1
    while k < n:
        lk = lam[k]
        if k > kmax:
            # incremental Gram-Schmidt of the first new vector: this is the
            # fraction-free elimination of its Gram column
            kmax = k
            gk = gram_times(b[k])
            for j in range(k + 1):
                u = -sum(map(mul, b[j], gk))
                lj = lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                elif u <= 0:
                    raise ArithmeticError("complement form is not negative definite")
                else:
                    d[k + 1] = u
            if k == 0:
                k = 1
                continue
        # size-reduce b[k]: b[k] -= q b[l] with q nearest to lam[k][l] / d[l+1]
        for l in range(k - 1, -1, -1):
            dl = d[l + 1]
            if 2 * abs(lk[l]) > dl:
                q = (2 * lk[l] + dl) // (2 * dl)
                b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                lk[l] -= q * dl
                ll = lam[l]
                for i in range(l):
                    lk[i] -= q * ll[i]
        lm = lk[k - 1]
        dk, dk1 = d[k], d[k + 1]
        if 4 * dk1 * d[k - 1] < 3 * dk * dk - 4 * lm * lm:
            # Lovasz condition fails: swap b[k-1] and b[k], update d[k] and
            # the coefficients of the later vectors already reached
            b[k - 1], b[k] = b[k], b[k - 1]
            lo = lam[k - 1]
            lo[: k - 1], lk[: k - 1] = lk[: k - 1], lo[: k - 1]
            big_b = (d[k - 1] * dk1 + lm * lm) // dk
            for i in range(k + 1, kmax + 1):
                li = lam[i]
                t = li[k]
                li[k] = (dk1 * li[k - 1] - lm * t) // dk
                li[k - 1] = (big_b * t + lm * li[k]) // dk1
            d[k] = big_b
            k = max(1, k - 1)
            continue
        k += 1
    return b, d, lam


class _SliceEnumerator:
    """Enumerates isotropic classes on affine slices {x : H.x = k}.

    The complement basis B of H (under the pairing) carries a negative
    definite form A = B^T G B.  On the slice x0 + B t the isotropy
    condition becomes the ellipsoid equation (t - m)^T N (t - m) = radius
    with N = -A positive definite, written as
    sum_i d_i ((t_i - m_i) + sum_{j>i} u_ij (t_j - m_j))^2 = radius.
    x0 and m scale by q = k/g and radius by q^2 from the slice H.x = g, so
    all of them are computed once per H.

    The xgcd kernel basis of H.x = 0 is skewed, which makes the ellipsoid
    long and thin in t and the search tree wide.  It is LLL-reduced under
    N first (Lenstra-Lenstra-Lovasz 1982; Cohen, GTM 138, Alg. 2.6.7, in
    integers).  That reduction ends with the leading minors D_k of N and
    the integral Gram-Schmidt coefficients lam_ji = D_{i+1} u_ij of the
    reduced basis, which are exactly what a fraction-free (Bareiss)
    elimination of N would produce: d_i = D_{i+1}/D_i and
    u_ij = lam_ji/D_{i+1}.  Only the linear term c = B^T G x0 of the slice
    H.x = g is still eliminated, as one more column with the same
    recurrence.

    With L a common denominator of u and m, and DD one of d, the integers
    U = L u, M = L m, w = DD d and R = L^4 DD radius turn the equation
    into sum_i w_i (L^2 t_i - a_i)^2 = R with a_i = L M_i - sum_{j>i} U_ij S_j
    and S_j = L t_j - M_j.  The Fincke-Pohst search over t_8, ..., t_0 is
    then pure integer arithmetic: w_i (L^2 t_i - a_i)^2 <= rem holds
    exactly when |L^2 t_i - a_i| <= isqrt(rem // w_i), so every window is
    exact and a leaf is a solution precisely when nothing remains.  On
    levels 8..3 it recurses, and fixing t_i updates the partial sums of
    all lower a_k at once, as a new list (Schnorr-Euchner).  Levels 2, 1
    and 0 are one loop nest inside the level-3 loop, with a_2, a_1, a_0
    and the partial point carried as scalars: the tree is widest there
    (on enumerate workloads it has fewer level-1 nodes than solutions), so
    a Python call and a list per node would cost more than the arithmetic.
    The last coordinate is solved for: only t_0 with w_0 (L^2 t_0 - a_0)^2
    equal to the remainder r can close a solution, so L^2 t_0 is
    a_0 + root or a_0 - root with root = isqrt(r / w_0).  When root = 0
    the two are one candidate, and it is appended once, so no solution is
    listed twice.

    Points are carried packed: a coordinate vector x is the one integer
    pack(x) = sum_j x_j 2^(lane (9 - j)).  pack is linear, so x0 and the
    basis vectors are packed once, here, and fixing t_i adds t_i pack(b_i)
    to the partial point: one big-int multiply-add instead of ten.  The
    partial sums are exact integers, so carries between lanes lose
    nothing; only reading a solution back needs every |x_j| < 2^(lane-1).
    Then pack(x) + B, with B = 2^(lane-1) in every lane, has the base
    2^lane digits x_j + 2^(lane-1), so packed solutions sort as their
    coordinate vectors do, lexicographically, and decode() reads the
    digits back.

    The lane bound holds on every slice 1 <= k <= kmax: each solution x
    has |x_j| <= 16 kmax (H.D)/(H.H).  For H.D > 0 (else replace H and x
    by -H and -x): H lies in the positive cone C+ of D, and x is isotropic
    with x.H > 0, so x lies in the closure of C+ (see isotropic_slices),
    as do f1..f10; two classes of that closure pair >= 0, so every
    a_i = x.fi >= 0, and with d = x.D = (a_1 + ... + a_10)/3 each
    a_i <= 3d.  By lattice.from_pairings x = (d - 3 a_10) D +
    sum_(i<=9) (a_10 - a_i) fi, so |x_j| <= 8d.  Write D = alpha H + v and
    x = beta H + u with u, v in H-perp, alpha = H.D/H.H and beta = k/H.H.
    x.x = 0 gives u.u = -k^2/H.H and D.D > 0 gives v.v > -alpha^2 H.H;
    H-perp is negative definite, so Cauchy-Schwarz there (reverse
    Cauchy-Schwarz in signature (1, 9)) gives |u.v| < alpha k, and
    d = alpha k + u.v < 2k (H.D)/(H.H).  Lanes are 64 bits when the bound
    allows it, which decode() reads with one struct call per slice, and
    wider otherwise.
    """

    def __init__(self, h: NumClass, kmax: int):
        w = tuple(gram_times(h.coords))
        self.g, self.x0g, kernel = _solve_linear_form(w)
        basis, minor, lam = _reduce_basis(kernel)
        n = RANK - 1
        gx = gram_times(self.x0g)
        # eliminate c = B^T G x0 like a column appended to N: row i ends as
        # D_i times the i-th Schur-complement entry; every division is exact
        c = [sum(map(mul, b, gx)) for b in basis]
        ac = list(c)
        for i in range(n):
            ci, m0, m1 = ac[i], minor[i], minor[i + 1]
            for r in range(i + 1, n):
                ac[r] = (m1 * ac[r] - ci * lam[r][i]) // m0
        # the center is m = p/det with p = adj(N) c, by back substitution
        det = minor[n]
        p = [0] * n
        for i in reversed(range(n)):
            tail = sum(lam[j][i] * p[j] for j in range(i + 1, n))
            p[i] = (det * ac[i] - tail) // minor[i + 1]
        # least common denominators of u and m (L), and of d (DD)
        big_l = math.lcm(
            *(
                minor[i + 1] // math.gcd(lam[j][i], minor[i + 1])
                for j in range(n)
                for i in range(j)
            ),
            *(det // math.gcd(x, det) for x in p),
        )
        dd = math.lcm(*(minor[i] // math.gcd(minor[i + 1], minor[i]) for i in range(n)))
        # t^T A t + 2 c.t + e0 = 0 is (t-m)^T N (t-m) = e0 + c.m =: radius
        e0 = sum(map(mul, self.x0g, gx))
        num = big_l**4 * dd * (det * e0 + sum(map(mul, c, p)))
        if num % det:
            raise ArithmeticError("scaled slice radius is not integral")
        # R and M = L m on the slice H.x = g
        self.big_l = big_l
        self.radius = num // det
        self.center = [big_l * x // det for x in p]
        self.w = [dd * minor[i + 1] // minor[i] for i in range(n)]
        # cols[i][k] = U_ki for k < i: fixing t_i moves every lower a_k
        self.cols = [
            [big_l * lam[i][k] // minor[k + 1] for k in range(i)] for i in range(n)
        ]
        # the lane width: |x_j| <= bound < 2^(lane-1) on slices k <= kmax
        bound = 16 * kmax * abs(w[0]) // sum(map(mul, h.coords, w))
        self.lane = lane = 64 if bound < 1 << 63 else bound.bit_length() + 1
        self.shifts = shifts = [lane * (RANK - 1 - j) for j in range(RANK)]
        self.bias = sum(1 << (lane - 1 + s) for s in shifts)
        self.packed_x0 = _pack(self.x0g, shifts)
        self.packed_basis = [_pack(b, shifts) for b in basis]
        self.kmax = kmax

    def solutions(self, k: int) -> list[int]:
        """All x with H.x = k and x.x = 0 (no further filtering), packed.

        Valid for k <= kmax; decode() turns them into coordinates, and
        sorting them sorts the coordinate vectors.  Each appears once.
        """
        if k % self.g:
            return []
        q = k // self.g
        rad = q * q * self.radius
        if rad < 0:
            return []
        big_l = self.big_l
        l2 = big_l * big_l
        cm = [q * x for x in self.center]  # M on this slice
        w, cols, basis = self.w, self.cols, self.packed_basis
        # what the loop nest of levels 2, 1 and 0 reads, bound once
        w0, w1, w2 = w[0], w[1], w[2]
        c10 = cols[1][0]
        c20, c21 = cols[2]
        m1, m2 = cm[1], cm[2]
        b0, b1, b2 = basis[0], basis[1], basis[2]
        isqrt = math.isqrt
        out: list[int] = []
        append = out.append

        def visit(i: int, rem: int, acc: list[int], pos: int) -> None:
            # acc[k] = L M_k - sum_{j>i} U_kj S_j for k <= i, so a_i = acc[i];
            # pos = pack(x0 + sum_{j>i} t_j b_j)
            a = acc[i]
            wi = w[i]
            half = isqrt(rem // wi)  # exact: |L^2 t_i - a_i| <= half
            col = cols[i]
            mi = cm[i]
            bi = basis[i]
            for ti in range(-((half - a) // l2), (a + half) // l2 + 1):
                e = l2 * ti - a
                ri = rem - wi * e * e
                sj = big_l * ti - mi
                if i > 3:
                    visit(
                        i - 1,
                        ri,
                        [p - c * sj for p, c in zip(acc, col)],
                        pos + ti * bi,
                    )
                    continue
                # levels 2, 1 and 0 as one loop nest over scalars
                p3 = pos + ti * bi
                a2 = acc[2] - col[2] * sj
                a1_3 = acc[1] - col[1] * sj
                a0_3 = acc[0] - col[0] * sj
                h2 = isqrt(ri // w2)
                for t2 in range(-((h2 - a2) // l2), (a2 + h2) // l2 + 1):
                    e = l2 * t2 - a2
                    r2 = ri - w2 * e * e
                    s2 = big_l * t2 - m2
                    a1 = a1_3 - c21 * s2
                    a0_2 = a0_3 - c20 * s2
                    p2 = p3 + t2 * b2
                    h1 = isqrt(r2 // w1)
                    for t1 in range(-((h1 - a1) // l2), (a1 + h1) // l2 + 1):
                        e = l2 * t1 - a1
                        r = r2 - w1 * e * e
                        # w_0 (L^2 t_0 - a_0)^2 = r leaves at most two candidates
                        if r % w0:
                            continue
                        root = isqrt(r // w0)
                        if root * root * w0 != r:
                            continue
                        a0 = a0_2 - c10 * (big_l * t1 - m1)
                        p1 = p2 + t1 * b1
                        l2t0 = a0 + root
                        if l2t0 % l2 == 0:
                            append(p1 + l2t0 // l2 * b0)
                        # root = 0 gives a single candidate, which must not
                        # be counted twice
                        if root:
                            l2t0 = a0 - root
                            if l2t0 % l2 == 0:
                                append(p1 + l2t0 // l2 * b0)

        visit(RANK - 2, rad, [big_l * x for x in cm], q * self.packed_x0)
        return out

    def slices(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """(k, n, flat) for each slice k <= kmax with n >= 1 primitive
        solutions, flat holding their sorted coordinate vectors end to end.

        x on slice k is imprimitive iff x = e y, e > 1, y primitive; then
        H.y = k/e, so e divides k and y is kept on slice k/e, and every
        such e y solves slice k.  pack is linear, and injective within the
        lane bound, so these x are exactly the packed e pack(y).
        """
        kept: list[list[int]] = [[]]
        for k in range(1, self.kmax + 1):
            layer = self.solutions(k)
            multiples = {
                e * p for e in range(2, k + 1) if k % e == 0 for p in kept[k // e]
            }
            layer = [p for p in layer if p not in multiples]
            # a slice past kmax/2 has no multiple on a slice up to kmax
            kept.append(layer if 2 * k <= self.kmax else [])
            if layer:
                layer.sort()
                yield k, len(layer), self.decode(layer)

    def decode(self, packed: list[int]) -> tuple[int, ...]:
        """The coordinates of packed solutions, in the same order, end to end."""
        bias = self.bias
        if self.lane == 64:
            # (x + B) ^ B holds each x_j as a two's-complement 64-bit word
            size = 8 * RANK
            words = b"".join([((x + bias) ^ bias).to_bytes(size, "big") for x in packed])
            return struct.unpack(">%dq" % (RANK * len(packed)), words)
        mask = (1 << self.lane) - 1
        half = 1 << (self.lane - 1)
        shifts = self.shifts
        return tuple([(((x + bias) >> s) & mask) - half for x in packed for s in shifts])


def _pack(v: list[int], shifts: list[int]) -> int:
    return sum(c << s for c, s in zip(v, shifts))


def isotropic_slices(
    h: PicClass, kmax: int
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The primitive isotropic nu with nu.D > 0 and 0 < nu.H <= kmax, as
    the (k, n, flat) of _SliceEnumerator.slices; h and kmax are checked now.

    nu.D > 0 is not tested: H effective of positive square lies in the
    positive cone C+ that contains D, and a nonzero isotropic x pairs
    nonzero with every y in C+ (y-perp is negative definite), so with one
    sign on all of C+; x.H = k > 0 makes it positive.
    """
    if h.square <= 0:
        raise ValueError("need a class of positive square")
    if not is_effective(h):
        raise ValueError("need an effective class")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return _SliceEnumerator(h.num, kmax).slices()


def enumerate_isotropic(h: PicClass, kmax: int) -> list[NumClass]:
    """isotropic_slices(h, kmax) as one NumClass list, by (nu.H, coordinates)."""
    return [
        NumClass._of(flat[i : i + RANK])
        for _, n, flat in isotropic_slices(h, kmax)
        for i in range(0, RANK * n, RANK)
    ]


def _replay(a: list[int], word) -> list[int]:
    """Reflect the class with pairings a in the simple roots of word, in
    order (see lattice.reduce_to_chamber); a is changed and returned."""
    for i in word:
        if i:
            a[i - 1], a[i] = a[i], a[i - 1]
        else:
            t = sum(a) // 3 - a[0] - a[1] - a[2]
            a[0] += t
            a[1] += t
            a[2] += t
    return a


# the pairings (f10.f1, ..., f10.f10)
_F10 = (1,) * 9 + (0,)


def phi(h: PicClass) -> PhiResult:
    """min E.H over primitive isotropic effective E, with a witness.

    Requires H effective of positive square; raises ValueError otherwise.
    The witness is the lexicographically smallest coordinate vector among
    the minimizers, with torsion bit 0 (both torsion lifts of a half-fiber
    class are effective).

    reduce_to_chamber writes H = w.y with y dominant and w a word in the
    simple reflections, so E.H = (w^-1.E).y.  Every primitive isotropic
    effective class is v.f10 for some v in W: the fundamental polyhedron
    of E10 has one cusp, at f10 (Vinberg 1975), W keeps the positive cone,
    and on an unnodal surface the effective isotropic classes are the
    nonzero isotropic classes of its closure.  So phi(H) is the least
    y.(v.f10) over v in W.

    Both f10 and y are dominant.  A simple reflection s_i sends a class nu
    to nu + (nu.ri) ri, so v.f10 = f10 + sum c_i ri with every c_i >= 0
    (Kac, Infinite-dimensional Lie algebras, Lemma 3.11), and
    y.(v.f10) >= y.f10: phi(H) = y.f10, the least pairing of y.  Equality
    holds exactly on the orbit of f10 under the reflections in the simple
    roots orthogonal to y, which generate the stabilizer of y (Kac,
    Prop. 3.12).  For let nu = v.f10 != f10 attain it, with v of least
    length, and write v = s_i v' with v' shorter.  Then nu.ri < 0 (it is
    f10 paired with the negative root v^-1.ri, and 0 would let a shorter
    word reach nu), so y.(s_i nu) = y.nu + (nu.ri)(y.ri) <= y.f10 forces
    y.ri = 0 and equality for s_i nu = v'.f10, which lies in the orbit by
    induction on the length; hence so does nu.  As y.y > 0, the roots
    orthogonal to y span a negative definite lattice and the orbit is
    finite: a breadth-first search finds it, and w maps it onto the
    minimizers.
    """
    try:
        y, word = reduce_to_chamber(h.num)
    except ValueError:
        raise ValueError("phi needs an effective class of positive square") from None
    # Only the component of r9 in the diagram of the roots orthogonal to y
    # moves f10: the other roots there are orthogonal to f10 and to that
    # component.  With y[m:] the entries equal to y[9], it holds the ri
    # with m < i <= 9, and r0 when y.r0 = 0 and its neighbour r3 is in
    # (m <= 2).  The orbit is walked breadth first: the list grows while
    # it is walked.
    m = RANK - y.count(y[9])
    roots = list(range(m + 1, RANK))
    if m <= 2 and sum(y) == 3 * (y[0] + y[1] + y[2]):
        roots.append(0)
    orbit = [_F10]
    seen = {_F10}
    for e in orbit:
        for i in roots:
            # a root orthogonal to e fixes it
            if (e[i - 1] == e[i]) if i else (sum(e) == 3 * (e[0] + e[1] + e[2])):
                continue
            f = tuple(_replay(list(e), (i,)))
            if f not in seen:
                seen.add(f)
                orbit.append(f)
    back = word[::-1]
    least = min(
        (from_pairings(_replay(list(e), back)) for e in orbit),
        key=lambda x: x.coords,
    )
    return PhiResult(y[9], PicClass(least, 0))
