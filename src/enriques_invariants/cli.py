"""Command line front end.

Subcommands: analyze (full pipeline on a decomposition expression),
components (database slice), phi (invariant with witness), coh (line
bundle cohomology), enumerate (isotropic classes with bounded pairing),
verify-tables (recompute the embedded golden tables and diff).

Exit codes: 0 everything ok, 1 mismatch / inconclusive / semantic error,
2 malformed command line or unparseable input.  `--json` switches every
command to a machine-readable report of the shape
{command, status, message, payload}; the default is plain text.  The
`--json` output is exactly json.dumps(report, indent=2).  enumerate renders
each slice with one % format over its flat coordinates: a row template (a
text line, or with --json the object json.dumps would print) per class,
pairing written in; main splices the --json rows into the dumped report.

The argument parser is built once per process, on the first main() call,
and reused: parse_args returns a fresh namespace on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .lattice import COORDS_FORMAT, NumClass, RANK
from .surface import PicClass, genus, isotropic_slices, phi
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
    _fiber_split,
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
    # enumerate's class rows, one ",\n"-joined block per slice, each row laid
    # out as json.dumps(indent=2) lays out an item of payload["classes"]; main
    # puts them in place of the empty list that payload["classes"] holds
    json_rows: list[str] | None = None

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
    # component_of matched d to rec by canonical type, and the driver is
    # invariant under relabelling, so d's interval is rec's
    split = _fiber_split(rec, iv)
    fiber = split.h1_H
    cap = extendability_cap(rec, fiber) if rec.phi >= 3 else None
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


# one enumerate row from (pairing, *coordinates): a {"pairing", "class"}
# object at the depth json.dumps(indent=2) puts it in a report, or a text line
_JSON_ROW = (
    '      {\n        "pairing": %d,\n        "class": "num['
    + COORDS_FORMAT
    + ']"\n      }'
)
_TEXT_ROW = "  k=%d  num[" + COORDS_FORMAT + "]"


def _cmd_enumerate(ns) -> tuple[Report, int, list[str]]:
    if ns.kmax < 1:
        raise InputError(f"--kmax must be >= 1, got {ns.kmax}")
    h = _parse_class_or_type(ns.expression)
    # one % format per slice: the row template, its pairing k written in,
    # once per class of the slice
    row = _JSON_ROW if ns.json else _TEXT_ROW
    sep = ",\n" if ns.json else "\n"
    blocks: list[str] = []
    count = 0
    for k, n, flat in isotropic_slices(h, ns.kmax):
        blocks.append(sep.join([row.replace("%d", str(k), 1)] * n) % flat)
        count += n
    payload = {"class": str(h), "kmax": ns.kmax, "count": count, "classes": []}
    if ns.json:
        return Report("enumerate", payload, json_rows=blocks), OK, []
    lines = [f"{count} primitive isotropic classes with pairing <= {ns.kmax}:"]
    return Report("enumerate", payload), OK, lines + blocks


# ---------------------------------------------------------------------------
# table verification

# what a row's check may raise: the row becomes a FAIL that shows the
# message, and the other rows are still checked
_ROW_ERRORS = (ArithmeticError, ValueError, DatabaseError)


def _verify_bounds() -> list[dict]:
    rows = []
    for text, kind, val in BOUND_TABLE:
        cert = "no certificate"
        try:
            iv = h1_tangent_k3(parse(text))
            cert = _certificate_text(iv.certificate)
            computed = _interval_text(iv)
            if kind == "=":
                good = iv.exact and iv.value == val
            else:
                good = (not iv.exact) and iv.lower == 0 and iv.upper == val
        except _ROW_ERRORS as exc:
            computed = f"raised: {exc}"
            good = False
        rows.append(
            {
                "table": "k3-bounds",
                "row": text,
                "expected": f"{kind}{val}",
                "computed": computed,
                "ok": good,
                "certificate": cert,
            }
        )
    return rows


def _fiber_row(table: str, rec: ComponentRecord, expected: int) -> dict:
    cert = "no certificate"
    try:
        iv = h1_tangent_k3(rec.dtype)
        cert = _certificate_text(iv.certificate)
        fd = fiber_dimension(rec, iv)
        computed: object = fd
        good = fd == expected
    except _ROW_ERRORS as exc:
        computed = f"raised: {exc}"
        good = False
    return {
        "table": table,
        "row": rec.label,
        "expected": expected,
        "computed": computed,
        "ok": good,
        "certificate": cert,
    }


def _verify_phi3plus() -> list[dict]:
    recs = all_tabulated_components()
    fiber_rows = [_fiber_row("phi3plus-fiber", rec, rec.fiber_dim_chi) for rec in recs]
    rows = list(fiber_rows)
    for rec, fiber_row in zip(recs, fiber_rows):
        # the cap is checked against the fiber dimension of its fiber row;
        # when that computation raised, the cap row shows the same message
        fiber = fiber_row["computed"]
        if isinstance(fiber, str):
            computed: object = fiber
            good = False
        else:
            try:
                cap = extendability_cap(rec, fiber)
                computed = "none" if cap is None else cap
                good = cap == rec.extendability_cap
            except _ROW_ERRORS as exc:
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
        except _ROW_ERRORS as exc:
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


# scope "all" runs every runner, in this order
_SCOPES = {
    "bounds": _verify_bounds,
    "phi3plus": _verify_phi3plus,
    "phi2": _verify_phi2,
    "phi1": _verify_phi1,
    "triple": _verify_triple,
}


def _cmd_verify(ns) -> tuple[Report, int, list[str]]:
    runners = _SCOPES.values() if ns.scope == "all" else (_SCOPES[ns.scope],)
    rows: list[dict] = []
    for runner in runners:
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
        choices=("all", *_SCOPES),
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
        text = json.dumps(report.as_dict(), indent=2)
        if report.json_rows:
            # "classes" is the last key of the payload, and nothing before
            # it contains this text
            block = '"classes": [\n%s\n    ]' % ",\n".join(report.json_rows)
            text = text.replace('"classes": []', block, 1)
        print(text)
    else:
        for line in lines:
            print(line)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
