"""Command line front end.

Subcommands: analyze (full pipeline on a decomposition expression),
components (database slice), phi (invariant with witness), coh (line
bundle cohomology), enumerate (isotropic classes with bounded pairing),
verify-tables (recompute the embedded golden tables and diff).

Exit codes: 0 everything ok, 1 mismatch / inconclusive / semantic error,
2 malformed command line or unparseable input.  `--json` switches every
command to a machine-readable report of the shape
{command, status, message, payload}; the default is plain text.

The argument parser is built once per process, on the first main() call,
and reused: parse_args returns a fresh namespace on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from operator import mul

from .lattice import NumClass, RANK, gram_times
from .surface import PicClass, enumerate_isotropic, genus, phi
from .cohomology import coh, k3_coh
from .decomposition import (
    ComponentRecord,
    DatabaseError,
    ParseError,
    all_tabulated_components,
    component_of,
    components,
    parse,
    realize,
    validate_simple,
)
from .moduli import (
    BOUND_TABLE,
    Certificate,
    H1Interval,
    enriques_split,
    extendability_cap,
    fiber_dimension,
    h1_tangent_k3,
    phi1_family_total,
    phi2_triple_family_total,
)

OK, FAIL, USAGE = 0, 1, 2


class InputError(ValueError):
    """Bad class literal or otherwise unusable command input."""


@dataclass
class Report:
    command: str
    payload: object
    status: str = "ok"  # ok | inconclusive | error
    message: str = ""

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "status": self.status,
            "message": self.message,
            "payload": self.payload,
        }


def _parse_class(text: str) -> PicClass:
    t = "".join(text.split())
    if t.startswith("num[") and t.endswith("]"):
        body, eps = t[4:-1], 0
    elif t.startswith("pic[") and t.endswith("]"):
        body, sep, tail = t[4:-1].rpartition(";")
        if not sep:
            raise InputError("pic[...] literals need ';eps' before the bracket")
        if tail not in ("0", "1"):
            raise InputError("eps must be 0 or 1")
        eps = int(tail)
    else:
        raise InputError("expected num[c0,...,c9] or pic[c0,...,c9;eps]")
    parts = body.split(",")
    if len(parts) != RANK:
        raise InputError(f"expected {RANK} coordinates, got {len(parts)}")
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError("coordinates must be integers") from None
    return PicClass(NumClass(coords), eps)


def _parse_class_or_type(text: str) -> PicClass:
    """A num[...]/pic[...] literal, or a decomposition expression to realize."""
    stripped = "".join(text.split())
    if stripped.startswith(("num[", "pic[")):
        return _parse_class(text)
    return realize(parse(text))


def _interval_dict(iv: H1Interval) -> dict:
    c = iv.certificate
    return {
        "lower": iv.lower,
        "upper": iv.upper,
        "exact": iv.exact,
        "certificate": {
            "method": c.method,
            "aux": {k: v for k, v in c.aux},
            "values": {k: v for k, v in c.values},
            "note": c.note,
        },
    }


def _interval_text(iv: H1Interval) -> str:
    if iv.exact:
        return f"={iv.lower}"
    if iv.upper is None:
        return f">={iv.lower}"
    return f"[{iv.lower},{iv.upper}]"


def _certificate_text(c: Certificate) -> str:
    bits = [c.method]
    if c.aux:
        bits.append(", ".join(f"{k}={v}" for k, v in c.aux))
    if c.values:
        bits.append(", ".join(f"{k}={v}" for k, v in c.values))
    if c.note:
        bits.append(c.note)
    return "; ".join(bits)


def _record_dict(rec: ComponentRecord) -> dict:
    return {
        "label": rec.label,
        "g": rec.g,
        "phi": rec.phi,
        "type": rec.dtype.text,
        "fiber_dim_chi": rec.fiber_dim_chi,
        "h1_split": list(rec.h1_split),
        "extendability_cap": rec.extendability_cap,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(ns) -> tuple[Report, int, list[str]]:
    d = parse(ns.expression)
    ok, why = validate_simple(d)
    if not ok:
        return Report("analyze", {"type": d.text}, "error", why), FAIL, [why]
    h = realize(d)
    if h.square < 2:
        msg = "type realizes to square < 2, not a polarization"
        return Report("analyze", {"type": d.text}, "error", msg), FAIL, [msg]
    iv = h1_tangent_k3(d)
    payload = {
        "type": d.text,
        "class": str(h),
        "g": genus(h),
        "phi": phi(h).value,
        "component": None,
        "h1_k3": _interval_dict(iv),
        "split": None,
        "fiber_dim_chi": None,
        "fiber_dim_c": None,
        "extendability_cap": None,
    }
    lines = [
        f"type: {d.text}",
        f"class: {h}",
        f"g = {payload['g']}, phi = {payload['phi']}",
        f"h1 on the K3 cover: {_interval_text(iv)}"
        f"   [{_certificate_text(iv.certificate)}]",
    ]
    try:
        rec = component_of(d)
    except DatabaseError as exc:
        lines.append(f"component: not tabulated ({exc})")
        lines.append("status: inconclusive")
        return Report("analyze", payload, "inconclusive", str(exc)), FAIL, lines
    fiber = fiber_dimension(rec)
    split = enriques_split(rec.h1_split[0] + rec.h1_split[1], rec)
    cap = extendability_cap(rec) if rec.phi >= 3 else None
    payload["component"] = rec.label
    payload["split"] = {"h1_H": split.h1_H, "h1_HK": split.h1_HK, "rule": split.rule}
    payload["fiber_dim_chi"] = fiber
    # equals fiber_dimension_curves(rec): the forgetful cover to curves is finite
    payload["fiber_dim_c"] = fiber
    payload["extendability_cap"] = cap
    lines.append(f"component: {rec.label}")
    lines.append(
        f"split: h1(-H) = {split.h1_H}, h1(-H-K) = {split.h1_HK}   ({split.rule})"
    )
    lines.append(f"fiber dimension: {fiber} (same for the curve-level map)")
    if rec.phi >= 3:
        lines.append(f"extendability cap: {cap if cap is not None else 'none'}")
    lines.append("status: ok")
    return Report("analyze", payload), OK, lines


def _cmd_components(ns) -> tuple[Report, int, list[str]]:
    recs = components(ns.g, ns.phi)
    payload = [_record_dict(r) for r in recs]
    lines = [f"{len(recs)} component(s) for (g, phi) = ({ns.g}, {ns.phi}):"]
    for r in recs:
        cap = "-" if r.extendability_cap is None else str(r.extendability_cap)
        lines.append(
            f"  {r.label}  type {r.dtype.text}  fiber {r.fiber_dim_chi}"
            f"  split {r.h1_split}  cap {cap}"
        )
    return Report("components", payload), OK, lines


def _cmd_phi(ns) -> tuple[Report, int, list[str]]:
    h = _parse_class_or_type(ns.expression)
    res = phi(h)
    payload = {
        "class": str(h),
        "square": h.square,
        "phi": res.value,
        "witness": str(res.witness),
    }
    lines = [
        f"class: {h} (square {h.square})",
        f"phi = {res.value}, witness {res.witness}",
    ]
    return Report("phi", payload), OK, lines


def _cmd_coh(ns) -> tuple[Report, int, list[str]]:
    c = _parse_class_or_type(ns.expression)
    t = k3_coh(c) if ns.k3 else coh(c)
    cover = "k3" if ns.k3 else "enriques"
    payload = {
        "class": str(c),
        "cover": cover,
        "h0": t.h0,
        "h1": t.h1,
        "h2": t.h2,
        "chi": t.h0 - t.h1 + t.h2,
    }
    lines = [f"coh of {c} on the {cover} surface: ({t.h0}, {t.h1}, {t.h2})"]
    return Report("coh", payload), OK, lines


def _cmd_enumerate(ns) -> tuple[Report, int, list[str]]:
    if ns.kmax < 1:
        raise InputError(f"--kmax must be >= 1, got {ns.kmax}")
    h = _parse_class_or_type(ns.expression)
    found = enumerate_isotropic(h, ns.kmax)
    # x.H is the dot product of x with G H, which is computed once
    gh = gram_times(h.num.coords)
    rows = [{"pairing": sum(map(mul, x.coords, gh)), "class": str(x)} for x in found]
    payload = {
        "class": str(h),
        "kmax": ns.kmax,
        "count": len(found),
        "classes": rows,
    }
    lines = [f"{len(found)} primitive isotropic classes with pairing <= {ns.kmax}:"]
    lines += [f"  k={r['pairing']}  {r['class']}" for r in rows]
    return Report("enumerate", payload), OK, lines


# ---------------------------------------------------------------------------
# table verification

def _verify_bounds() -> list[dict]:
    rows = []
    for text, kind, val in BOUND_TABLE:
        iv = h1_tangent_k3(parse(text))
        if kind == "=":
            good = iv.exact and iv.value == val
        else:
            good = (not iv.exact) and iv.lower == 0 and iv.upper == val
        rows.append(
            {
                "table": "k3-bounds",
                "row": text,
                "expected": f"{kind}{val}",
                "computed": _interval_text(iv),
                "ok": good,
                "certificate": _certificate_text(iv.certificate),
            }
        )
    return rows


def _fiber_row(table: str, rec: ComponentRecord, expected: int) -> dict:
    try:
        fd = fiber_dimension(rec)
        computed: object = fd
        good = fd == expected
    except (ArithmeticError, ValueError, DatabaseError) as exc:
        computed = f"raised: {exc}"
        good = False
    cert = _certificate_text(h1_tangent_k3(rec.dtype).certificate)
    return {
        "table": table,
        "row": rec.label,
        "expected": expected,
        "computed": computed,
        "ok": good,
        "certificate": cert,
    }


def _verify_phi3plus() -> list[dict]:
    rows = []
    for rec in all_tabulated_components():
        rows.append(_fiber_row("phi3plus-fiber", rec, rec.fiber_dim_chi))
    for rec in all_tabulated_components():
        try:
            cap = extendability_cap(rec)
            computed: object = "none" if cap is None else cap
            good = cap == rec.extendability_cap
        except (ArithmeticError, ValueError) as exc:
            computed = f"raised: {exc}"
            good = False
        expected = (
            "none" if rec.extendability_cap is None else rec.extendability_cap
        )
        rows.append(
            {
                "table": "phi3plus-cap",
                "row": rec.label,
                "expected": expected,
                "computed": computed,
                "ok": good,
                "certificate": "cap = fiber dimension when positive",
            }
        )
    return rows


def _verify_phi2() -> list[dict]:
    rows = []
    for g in range(9, 2, -1):
        for rec in components(g, 2):
            rows.append(_fiber_row("phi2-fiber", rec, rec.fiber_dim_chi))
    for g in range(10, 21):
        for rec in components(g, 2):
            rows.append(_fiber_row("phi2-fiber-high-genus", rec, rec.fiber_dim_chi))
    return rows


def _verify_phi1() -> list[dict]:
    rows = []
    for g in range(2, 16):
        rec = components(g, 1)[0]
        expected = rec.fiber_dim_chi
        row = _fiber_row("phi1-fiber", rec, expected)
        if row["ok"] and phi1_family_total(g) != 2 * expected:
            row["ok"] = False
            row["computed"] = (
                f"{row['computed']} (family total {phi1_family_total(g)}"
                f" != {2 * expected})"
            )
        rows.append(row)
    return rows


def _verify_triple() -> list[dict]:
    rows = []
    for k in range(2, 11):
        expected = 4 if k == 2 else 0
        try:
            got = phi2_triple_family_total(k)
            computed: object = got
            good = got == expected
        except ArithmeticError as exc:
            computed = f"raised: {exc}"
            good = False
        rows.append(
            {
                "table": "triple-family",
                "row": f"k={k}",
                "expected": expected,
                "computed": computed,
                "ok": good,
                "certificate": "double-cover recomputation",
            }
        )
    return rows


_SCOPES = {
    "bounds": (_verify_bounds,),
    "phi3plus": (_verify_phi3plus,),
    "phi2": (_verify_phi2,),
    "phi1": (_verify_phi1,),
    "triple": (_verify_triple,),
}
_SCOPES["all"] = (
    _verify_bounds,
    _verify_phi3plus,
    _verify_phi2,
    _verify_phi1,
    _verify_triple,
)


def _cmd_verify(ns) -> tuple[Report, int, list[str]]:
    rows: list[dict] = []
    for runner in _SCOPES[ns.scope]:
        rows.extend(runner())
    failures = [r for r in rows if not r["ok"]]
    lines = []
    for r in rows:
        tag = "PASS" if r["ok"] else "FAIL"
        lines.append(
            f"{tag} {r['table']} {r['row']}: expected {r['expected']},"
            f" computed {r['computed']}  [{r['certificate']}]"
        )
    lines.append(
        f"{len(rows) - len(failures)}/{len(rows)} rows pass (scope {ns.scope})"
    )
    if failures:
        msg = f"{len(failures)} of {len(rows)} rows failed"
        return Report("verify-tables", rows, "error", msg), FAIL, lines
    return Report("verify-tables", rows), OK, lines


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="enriques",
        description="Divisor-class invariants on unnodal Enriques surfaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full analysis of a decomposition type")
    a.add_argument("expression", help='e.g. "2E1+2E2+E3" or "4E1+4E2+K"')
    a.set_defaults(handler=_cmd_analyze)

    c = sub.add_parser("components", help="tabulated moduli components")
    c.add_argument("--g", type=int, required=True, help="sectional genus")
    c.add_argument("--phi", type=int, required=True, help="phi invariant")
    c.set_defaults(handler=_cmd_components)

    f = sub.add_parser("phi", help="phi invariant with witness")
    f.add_argument("expression", help="class literal or decomposition")
    f.set_defaults(handler=_cmd_phi)

    co = sub.add_parser("coh", help="line bundle cohomology")
    co.add_argument("expression", help="class literal or decomposition")
    co.add_argument("--k3", action="store_true", help="on the K3 cover")
    co.set_defaults(handler=_cmd_coh)

    e = sub.add_parser("enumerate", help="primitive isotropic classes")
    e.add_argument("expression", help="class literal or decomposition")
    e.add_argument("--kmax", type=int, required=True, help="largest pairing")
    e.set_defaults(handler=_cmd_enumerate)

    v = sub.add_parser("verify-tables", help="recompute the golden tables")
    v.add_argument(
        "--scope",
        choices=("all", "bounds", "phi3plus", "phi2", "phi1", "triple"),
        default="all",
    )
    v.set_defaults(handler=_cmd_verify)

    for s in (a, c, f, co, e, v):
        s.add_argument("--json", action="store_true", help="machine output")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        report, code, lines = ns.handler(ns)
    except (ParseError, InputError) as exc:
        report, code, lines = (
            Report(ns.command, None, "error", str(exc)),
            USAGE,
            [f"error: {exc}"],
        )
    except (ValueError, LookupError, ArithmeticError) as exc:
        report, code, lines = (
            Report(ns.command, None, "error", str(exc)),
            FAIL,
            [f"error: {exc}"],
        )
    if ns.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for line in lines:
            print(line)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
