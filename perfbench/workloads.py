"""Seeded inputs, operations and answer checks for the benchmark workloads.

Inputs are plain text, decomposition expressions and class literals,
generated here from the seed; the package only ever receives that text.
The small lattice model below (pairing, realization of symbols, S10
relabelling, shape check) is independent of the package, so the answer
checks do not trust the code they check.

Workloads (one op each, closed loop, one caller):

  analyze-mix     cli.main(["analyze", expr, "--json"]); each round is the
                  76 database types under a fresh S10 relabelling and term
                  shuffle, plus 76 random valid simple types
  enumerate-deep  cli.main(["enumerate", lit, "--kmax", k, "--json"]);
                  each round is the 13 (class, kmax) pairs of ENUMERATE_POOL,
                  every class under a fresh S10 relabelling
  h1-sweep        h1_tangent_k3(parse(expr)); each round is 500 random
                  valid simple types
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re

WORKLOADS = ("analyze-mix", "enumerate-deep", "h1-sweep")
DEFAULT_SEED = 0
RANK = 10
HERE = os.path.dirname(os.path.abspath(__file__))

# (base type, kmax): squares 2..8, a few hundred to a few thousand classes
ENUMERATE_POOL = (
    ("E1+E2", 2),
    ("E1+E2", 3),
    ("E1+E{1,2}", 3),
    ("E1+E{1,2}", 4),
    ("2E1+E2", 3),
    ("2E1+E2", 4),
    ("E1+E2+E3", 4),
    ("E1+E2+E3", 5),
    ("3E1+E2", 4),
    ("3E1+E2", 5),
    ("2E1+E{1,2}", 5),
    ("4E1+E2", 5),
    ("E1+2E{1,2}", 5),
)
RANDOM_PER_ROUND = {"analyze-mix": 76, "h1-sweep": 500}
# peak RSS is read after this many rounds, a fixed amount of work
RSS_ROUNDS = {"analyze-mix": 1, "enumerate-deep": 1, "h1-sweep": 4}
# latency_tail_ms percentile: the highest of p50, p75, p90, p95, p99, p99.9
# with at least ten samples beyond it in a run of the benchmark's length on
# the seed code; on h1-sweep p99.9 qualifies but spreads too widely run to
# run, so p99 is used
TAIL_PERCENTILE = {"analyze-mix": 95, "enumerate-deep": 75, "h1-sweep": 99}
# answers of the first REFERENCE_OPS ops of the default seed are digested
# and compared with perfbench/digests.json on every run
REFERENCE_OPS = {"analyze-mix": 40, "enumerate-deep": 3, "h1-sweep": 500}


# ---------------------------------------------------------------------------
# lattice model: basis (D, f1..f9), D.D = 10, D.fi = 3, fi.fj = 1 - [i = j]


def pair(x, y) -> int:
    sx, sy = sum(x[1:]), sum(y[1:])
    dot = sum(a * b for a, b in zip(x[1:], y[1:]))
    return 10 * x[0] * y[0] + 3 * (x[0] * sy + y[0] * sx) + sx * sy - dot


DELTA = (1,) + (0,) * 9


def isotropic(i: int) -> tuple[int, ...]:
    """f_i for i in 1..9; f10 = 3D - f1 - ... - f9."""
    if i == 10:
        return (3,) + (-1,) * 9
    return tuple(1 if r == i else 0 for r in range(RANK))


def realize_symbol(sym: tuple[int, ...]) -> tuple[int, ...]:
    """E<i> is f_i; E{i,j} is D - f_i - f_j."""
    if len(sym) == 1:
        return isotropic(sym[0])
    a, b = isotropic(sym[0]), isotropic(sym[1])
    return tuple(d - x - y for d, x, y in zip(DELTA, a, b))


def realize(terms) -> tuple[int, ...]:
    out = [0] * RANK
    for c, sym in terms:
        for r, v in enumerate(realize_symbol(sym)):
            out[r] += c * v
    return tuple(out)


def literal(coords) -> str:
    return "num[" + ",".join(str(c) for c in coords) + "]"


def pic_literal(coords, eps: int) -> str:
    return "pic[" + ",".join(str(c) for c in coords) + f";{eps}]"


def parse_literal(text: str) -> tuple[int, ...]:
    if not (text.startswith("num[") and text.endswith("]")):
        raise ValueError(f"not a num literal: {text!r}")
    return tuple(int(c) for c in text[4:-1].split(","))


# ---------------------------------------------------------------------------
# decomposition types: terms are (coefficient, symbol) with symbol a sorted
# tuple of one or two indices in 1..10


def sym_pairing(s, t) -> int:
    if len(s) == 1 and len(t) == 1:
        return 1
    if len(s) != len(t):
        return 2 if set(s) & set(t) else 1
    return 1 if set(s) & set(t) else 2


def is_simple(terms) -> bool:
    """The three admissible shapes of a simple isotropic decomposition."""
    syms = [s for _, s in terms]
    n = len(syms)
    if n < 2 or len(set(syms)) != n:
        return False
    links = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if sym_pairing(syms[i], syms[j]) == 2
    ]
    if not links:
        return n != 9
    if len(links) == 1:
        return n != 10
    return len(links) == 2 and bool(set(links[0]) & set(links[1]))


def type_text(terms, eps: int) -> str:
    parts = []
    for c, s in terms:
        sym = f"E{s[0]}" if len(s) == 1 else "E{%d,%d}" % s
        parts.append((str(c) if c > 1 else "") + sym)
    if eps:
        parts.append("K")
    return "+".join(parts)


_TERM = re.compile(r"(\d*)E(?:(\d+)|\{(\d+),(\d+)\})$")


def parse_type(text: str):
    """Inverse of type_text, for the benchmark's own fixed corpora."""
    parts = text.split("+")
    eps = 0
    if parts[-1] == "K":
        eps = 1
        parts = parts[:-1]
    terms = []
    for p in parts:
        m = _TERM.match(p)
        if m is None:
            raise ValueError(f"bad term {p!r} in {text!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if m.group(2):
            sym = (int(m.group(2)),)
        else:
            sym = tuple(sorted((int(m.group(3)), int(m.group(4)))))
        terms.append((c, sym))
    return terms, eps


def relabel(terms, perm):
    """Apply the index permutation perm (perm[i - 1] is the image of i)."""
    out = []
    for c, s in terms:
        out.append((c, tuple(sorted(perm[i - 1] for i in s))))
    return out


def random_perm(rng: random.Random) -> list[int]:
    perm = list(range(1, 11))
    rng.shuffle(perm)
    return perm


def random_simple_type(rng: random.Random, n: int):
    """A random valid simple type with n terms (2..10), coefficients 1..4."""
    while True:
        npairs = min(n, rng.choice((0, 0, 0, 1, 1, 2)))
        syms = [(i,) for i in rng.sample(range(1, 11), n - npairs)]
        while len(syms) < n:
            p = tuple(sorted(rng.sample(range(1, 11), 2)))
            if p not in syms:
                syms.append(p)
        terms = [(rng.randint(1, 4), s) for s in syms]
        if is_simple(terms):
            return terms, rng.randint(0, 1)


# ---------------------------------------------------------------------------
# the frozen database corpus


def load_database_types() -> list[dict]:
    rows = []
    with open(os.path.join(HERE, "database_types.tsv")) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            label, g, phi, text, fiber, h1h, h1hk, cap = line.rstrip("\n").split("\t")
            rows.append(
                {
                    "label": label,
                    "g": int(g),
                    "phi": int(phi),
                    "type": text,
                    "fiber_dim_chi": int(fiber),
                    "split": [int(h1h), int(h1hk)],
                    "cap": None if cap == "-" else int(cap),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# seeded op streams; an item is a dict with the op's text arguments and
# what the check needs to know about it


def _terms_for(i: int) -> int:
    # op cost grows with the number of terms; cycling it keeps every
    # round's mix of sizes the same, so seeds differ less in total cost
    return 2 + i % 9


def _analyze_round(rng: random.Random, database: list[dict]) -> list[dict]:
    items = []
    for rec in database:
        terms, eps = parse_type(rec["type"])
        terms = relabel(terms, random_perm(rng))
        rng.shuffle(terms)
        items.append({"expr": type_text(terms, eps), "record": rec})
    for i in range(RANDOM_PER_ROUND["analyze-mix"]):
        terms, eps = random_simple_type(rng, _terms_for(i))
        items.append({"expr": type_text(terms, eps), "record": None})
    rng.shuffle(items)
    return items


def _enumerate_round(rng: random.Random) -> list[dict]:
    items = []
    for base, kmax in ENUMERATE_POOL:
        terms, _ = parse_type(base)
        coords = realize(relabel(terms, random_perm(rng)))
        items.append({"literal": literal(coords), "kmax": kmax, "base": f"{base}@{kmax}"})
    rng.shuffle(items)
    return items


def _h1_round(rng: random.Random) -> list[dict]:
    out = []
    for i in range(RANDOM_PER_ROUND["h1-sweep"]):
        terms, eps = random_simple_type(rng, _terms_for(i))
        out.append({"expr": type_text(terms, eps)})
    return out


def rounds(workload: str, seed):
    """Endless stream of rounds of op items; same (workload, seed), same items."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    database = load_database_types() if workload == "analyze-mix" else None
    while True:
        if workload == "analyze-mix":
            yield _analyze_round(rng, database)
        elif workload == "enumerate-deep":
            yield _enumerate_round(rng)
        else:
            yield _h1_round(rng)


def first_items(workload: str, seed, n: int) -> list[dict]:
    out: list[dict] = []
    for rnd in rounds(workload, seed):
        out.extend(rnd)
        if len(out) >= n:
            return out[:n]


# ---------------------------------------------------------------------------
# ops: each returns the raw outcome; nothing here is checked


def run_op(workload: str, pkg, item: dict):
    """Execute one op through the package's public entry points.

    Names are looked up at call time so a tracer's wrappers are seen.
    Returns (exit code or None, captured stdout or the library result).
    """
    if workload == "h1-sweep":
        return None, pkg.h1_tangent_k3(pkg.parse(item["expr"]))
    if workload == "analyze-mix":
        argv = ["analyze", item["expr"], "--json"]
    else:
        argv = ["enumerate", item["literal"], "--kmax", str(item["kmax"]), "--json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# answer checks, run outside the timed region


class CheckError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _witness_ok(w, h, value: int) -> bool:
    return (
        pair(w, w) == 0
        and math.gcd(*w) == 1
        and pair(w, DELTA) > 0
        and pair(w, h) == value
    )


def check_analyze(item, code, out, pkg) -> tuple[dict, int]:
    _require(code in (0, 1), f"exit code {code}")
    report = json.loads(out)
    payload = report["payload"]
    if code == 1:
        _require(report["status"] == "inconclusive", f"status {report['status']}")
    else:
        _require(report["status"] == "ok", f"status {report['status']}")
    terms, eps = parse_type(item["expr"])
    h = realize(terms)
    sq = pair(h, h)
    _require(payload["class"] == pic_literal(h, eps), "realized class")
    _require(payload["g"] == sq // 2 + 1, "genus")
    value = payload["phi"]
    _require(value >= 1 and value * value <= sq, "phi^2 <= H.H")
    # the report carries no witness; recompute it untimed and check it
    # attains the reported phi
    res = pkg.phi(pkg.PicClass(pkg.NumClass(h), eps))
    w = res.witness.num.coords
    _require(res.value == value and _witness_ok(w, h, value), "witness attains phi")
    iv = payload["h1_k3"]
    _require(iv["lower"] >= 0, "h1 lower >= 0")
    _require(iv["upper"] is None or iv["lower"] <= iv["upper"], "h1 lower <= upper")
    split = payload["split"]
    if split is not None:
        split = [split["h1_H"], split["h1_HK"]]
    rec = item["record"]
    if rec is not None:
        _require(code == 0, "database type not found")
        _require(payload["component"] == rec["label"], "component label")
        _require((payload["g"], value) == (rec["g"], rec["phi"]), "database g, phi")
        _require(split == rec["split"], "split")
        _require(payload["fiber_dim_chi"] == rec["fiber_dim_chi"], "fiber dimension")
        _require(payload["extendability_cap"] == rec["cap"], "extendability cap")
    answer = {
        "expr": item["expr"],
        "status": report["status"],
        "g": payload["g"],
        "phi": value,
        "witness": list(w),
        "component": payload["component"],
        "h1": [iv["lower"], iv["upper"], iv["exact"]],
        "split": split,
        "fiber_dim_chi": payload["fiber_dim_chi"],
        "fiber_dim_c": payload["fiber_dim_c"],
        "cap": payload["extendability_cap"],
    }
    return answer, 1


def check_enumerate(item, code, out, counts: dict) -> tuple[dict, int]:
    _require(code == 0, f"exit code {code}")
    report = json.loads(out)
    _require(report["status"] == "ok", f"status {report['status']}")
    payload = report["payload"]
    h = parse_literal(item["literal"])
    kmax = item["kmax"]
    _require(payload["class"] == pic_literal(h, 0), "echoed class")
    _require(payload["kmax"] == kmax, "echoed kmax")
    classes = payload["classes"]
    _require(payload["count"] == len(classes), "count")
    prev = None
    found = []
    for entry in classes:
        x = parse_literal(entry["class"])
        p = pair(x, h)
        _require(pair(x, x) == 0, "isotropic")
        _require(math.gcd(*x) == 1, "primitive")
        _require(pair(x, DELTA) > 0, "effective")
        _require(entry["pairing"] == p and 1 <= p <= kmax, "pairing <= kmax")
        key = (p, x)
        _require(prev is None or prev < key, "sorted by (pairing, coordinates)")
        prev = key
        found.append([p, list(x)])
    # S10 relabelling is an isometry fixing D: every relabelling of one base
    # class must give the same number of classes
    base = item["base"]
    _require(counts.setdefault(base, len(found)) == len(found), "relabelling-invariant count")
    answer = {"literal": item["literal"], "kmax": kmax, "classes": found}
    return answer, len(found)


def check_h1(item, result) -> tuple[dict, int]:
    lo, up = result.lower, result.upper
    _require(lo >= 0, "h1 lower >= 0")
    _require(up is None or lo <= up, "h1 lower <= upper")
    _require(result.exact == (up is not None and up == lo), "exact flag")
    return {"expr": item["expr"], "h1": [lo, up, result.exact]}, 1


class Checker:
    """Checks each op's answer and folds it into a digest.

    Checks call into the package (phi for the witness); a tracer must be
    off while they run.
    """

    def __init__(self, workload: str, pkg):
        self.workload = workload
        self.pkg = pkg
        self.counts: dict = {}
        self.digest = hashlib.sha256()

    def check(self, item, code, out) -> int:
        """Return the number of result classes; raise CheckError on a bad answer."""
        if self.workload == "analyze-mix":
            answer, units = check_analyze(item, code, out, self.pkg)
        elif self.workload == "enumerate-deep":
            answer, units = check_enumerate(item, code, out, self.counts)
        else:
            answer, units = check_h1(item, out)
        self.digest.update(json.dumps(answer, sort_keys=True).encode())
        self.digest.update(b"\n")
        return units

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


def recorded_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)
