"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json

import pytest

from enriques_invariants import cli, moduli
from enriques_invariants.cli import FAIL, OK, USAGE, main
from enriques_invariants.decomposition import (
    DatabaseError,
    all_tabulated_components,
    components,
    parse,
)
from enriques_invariants.lattice import NumClass, inner


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv + ["--json"])
    return code, json.loads(out)


def test_exit_code_constants():
    assert (OK, FAIL, USAGE) == (0, 1, 2)


def test_analyze_known_component():
    code, rep = run_json(["analyze", "4E1+3E2"])
    assert code == OK
    assert rep["status"] == "ok"
    p = rep["payload"]
    assert p["g"] == 13 and p["phi"] == 3
    assert p["component"] == "E_{13,3}^{(II)}"
    assert p["fiber_dim_chi"] == 1
    assert p["fiber_dim_c"] == p["fiber_dim_chi"]


def test_analyze_phi2_component():
    code, rep = run_json(["analyze", "4E1+E{1,2}"])
    assert code == OK
    p = rep["payload"]
    assert (p["g"], p["phi"]) == (9, 2)
    assert p["component"] == "E_{9,2}^{(I)}"
    assert p["fiber_dim_chi"] == 0


def test_analyze_payload_schema():
    _, rep = run_json(["analyze", "2E1+2E2+E3"])
    assert set(rep["payload"]) == {
        "type",
        "class",
        "g",
        "phi",
        "component",
        "h1_k3",
        "split",
        "fiber_dim_chi",
        "fiber_dim_c",
        "extendability_cap",
    }
    assert set(rep["payload"]["h1_k3"]) == {"lower", "upper", "exact", "certificate"}


def test_analyze_rejects_distributive_sugar():
    code, out = run_cli(["analyze", "2(E1+E{1,2})"])
    assert code == USAGE
    assert "position" in out


def test_analyze_untabulated_is_inconclusive():
    code, rep = run_json(["analyze", "5E1+5E2"])
    assert code == FAIL
    assert rep["status"] == "inconclusive"
    assert rep["payload"]["component"] is None


def test_analyze_invalid_shape_fails():
    code, _ = run_cli(["analyze", "+".join(f"E{i}" for i in range(1, 10))])
    assert code == FAIL


def test_components_count():
    code, rep = run_json(["components", "--g", "13", "--phi", "4"])
    assert code == OK
    assert len(rep["payload"]) == 4


def test_components_uncovered_fails():
    code, _ = run_cli(["components", "--g", "26", "--phi", "5"])
    assert code == FAIL


def test_phi_of_fundamental_class():
    code, rep = run_json(["phi", "num[1,0,0,0,0,0,0,0,0,0]"])
    assert code == OK
    assert rep["payload"]["phi"] == 3
    assert rep["payload"]["witness"]


def test_coh_of_canonical():
    code, rep = run_json(["coh", "pic[0,0,0,0,0,0,0,0,0,0;1]"])
    assert code == OK
    p = rep["payload"]
    assert (p["h0"], p["h1"], p["h2"]) == (0, 0, 1)


def test_coh_k3_flag():
    code, rep = run_json(["coh", "--k3", "num[0,2,0,0,0,0,0,0,0,0]"])
    assert code == OK
    p = rep["payload"]
    assert (p["h0"], p["h1"], p["h2"]) == (3, 1, 0)
    assert p["cover"] == "k3"


def test_coh_bad_literal_is_usage_error():
    code, _ = run_cli(["coh", "pic[1,2]"])
    assert code == USAGE


def test_enumerate():
    code, rep = run_json(["enumerate", "num[0,1,1,0,0,0,0,0,0,0]", "--kmax", "1"])
    assert code == OK
    assert rep["payload"]["count"] == 2
    assert all(row["pairing"] == 1 for row in rep["payload"]["classes"])


def _num(literal):
    # the numerical part of a num[...] or pic[...;eps] literal
    body = literal[4:-1].partition(";")[0]
    return NumClass(tuple(int(c) for c in body.split(",")))


_ENUMERATE_INPUTS = [
    ("num[0,1,1,0,0,0,0,0,0,0]", 3),
    ("num[1,-1,0,0,0,0,0,0,0,0]", 3),
    ("num[2,-1,0,0,-1,0,0,-1,0,0]", 4),
    ("2E1+2E2+E3", 3),
    ("4E1+3E2+K", 4),
    # slices 2 and 3 hold only multiples of slice-1 classes: no row block
    ("3E1+E2", 4),
    ("4E1+E2", 5),
]


@pytest.mark.parametrize("expression, kmax", _ENUMERATE_INPUTS)
def test_enumerate_json_pairings_equal_inner(expression, kmax):
    code, rep = run_json(["enumerate", expression, "--kmax", str(kmax)])
    assert code == OK
    rows = rep["payload"]["classes"]
    assert rows and len(rows) == rep["payload"]["count"]
    h = _num(rep["payload"]["class"])
    assert all(row["pairing"] == inner(_num(row["class"]), h) for row in rows)


@pytest.mark.parametrize(
    "expression, kmax", _ENUMERATE_INPUTS + [("2E1+2E{1,2}", 3)]
)
def test_enumerate_output_is_json_dumps_of_report(expression, kmax):
    # the class rows are rendered from a template, not by json.dumps
    argv = ["enumerate", expression, "--kmax", str(kmax)]
    code, out = run_cli(argv + ["--json"])
    assert code == OK
    rep = json.loads(out)
    assert out == json.dumps(rep, indent=2) + "\n"
    rows = rep["payload"]["classes"]
    assert len(rows) == rep["payload"]["count"]
    code, text = run_cli(argv)
    assert code == OK
    want = [f"{len(rows)} primitive isotropic classes with pairing <= {kmax}:"]
    want += [f"  k={r['pairing']}  {r['class']}" for r in rows]
    assert text == "\n".join(want) + "\n"
    # an empty slice leaves no blank line and no empty row block ("," alone)
    assert all(line.strip(" ,") for line in (out + text).splitlines())


@pytest.mark.parametrize(
    "literal, why",
    [
        ("num[-1,0,0,0,0,0,0,0,0,0]", "need an effective class"),
        ("num[0,1,0,0,0,0,0,0,0,0]", "need a class of positive square"),
    ],
)
def test_enumerate_rejects_unusable_class(literal, why):
    argv = ["enumerate", literal, "--kmax", "2"]
    code, rep = run_json(argv)
    assert code == FAIL
    assert rep == {
        "command": "enumerate",
        "status": "error",
        "message": why,
        "payload": None,
    }
    assert run_cli(argv) == (FAIL, f"error: {why}\n")


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_enumerate_rejects_nonpositive_kmax(kmax):
    code, rep = run_json(["enumerate", "num[0,1,1,0,0,0,0,0,0,0]", "--kmax", kmax])
    assert code == USAGE
    assert rep["status"] == "error"
    assert "--kmax" in rep["message"]


@pytest.mark.parametrize("scope", ["bounds", "phi3plus", "phi2", "phi1", "triple"])
def test_verify_tables_scopes_pass(scope):
    code, out = run_cli(["verify-tables", "--scope", scope])
    assert code == OK
    assert "FAIL" not in out


def test_verify_tables_all():
    code, rep = run_json(["verify-tables", "--scope", "all"])
    assert code == OK
    assert rep["status"] == "ok"
    rows = rep["payload"]
    assert all(r["ok"] for r in rows)
    # bounds 10 + fiber/cap rows for every tabulated and generated family
    assert len(rows) >= 10 + 22 + 12 + 14 + 9
    assert all({"table", "row", "expected", "computed", "certificate"} <= set(r) for r in rows)


def _plant(monkeypatch, modules, name, exc, target):
    # replace modules' name by a wrapper that raises exc("planted") on target
    real = getattr(modules[0], name)

    def planted(arg, *rest):
        if arg == target:
            raise exc("planted")
        return real(arg, *rest)

    for module in modules:
        monkeypatch.setattr(module, name, planted)


def test_verify_tables_keeps_rows_when_one_h1_raises(monkeypatch):
    rec = components(5, 1)[0]
    _plant(monkeypatch, (cli, moduli), "h1_tangent_k3", ArithmeticError, rec.dtype)
    code, rep = run_json(["verify-tables", "--scope", "phi1"])
    assert code == FAIL
    rows = rep["payload"]
    assert len(rows) == 14
    bad = [r for r in rows if not r["ok"]]
    assert [(r["row"], r["computed"]) for r in bad] == [(rec.label, "raised: planted")]
    code, out = run_cli(["verify-tables", "--scope", "phi1"])
    assert out.count("FAIL") == 1 and out.count("PASS") == 13
    line = f"FAIL phi1-fiber {rec.label}: expected {rec.fiber_dim_chi}, computed raised: planted"
    assert line in out


@pytest.mark.parametrize(
    "scope, name, exc, target, row",
    [
        ("bounds", "h1_tangent_k3", ArithmeticError, parse("4E1+4E2"), "k3-bounds"),
        (
            "phi3plus",
            "extendability_cap",
            DatabaseError,
            all_tabulated_components()[0],
            "phi3plus-cap",
        ),
        ("triple", "phi2_triple_family_total", ValueError, 3, "triple-family"),
    ],
    ids=["bounds", "phi3plus-cap", "triple"],
)
def test_verify_tables_runners_catch_every_row_error(monkeypatch, scope, name, exc, target, row):
    _plant(monkeypatch, (cli,), name, exc, target)
    code, rep = run_json(["verify-tables", "--scope", scope])
    assert code == FAIL
    bad = [r for r in rep["payload"] if not r["ok"]]
    assert [(r["table"], r["computed"]) for r in bad] == [(row, "raised: planted")]


def test_verify_tables_text_has_row_lines():
    code, out = run_cli(["verify-tables", "--scope", "bounds"])
    assert code == OK
    assert out.count("PASS") >= 10


def test_unknown_subcommand_is_usage_error():
    code, _ = run_cli(["frobnicate"])
    assert code == USAGE


def test_bad_scope_is_usage_error():
    code, _ = run_cli(["verify-tables", "--scope", "nonsense"])
    assert code == USAGE


def test_json_round_trip_stability():
    _, first = run_json(["analyze", "4E1+3E2"])
    _, second = run_json(["analyze", "4E1+3E2"])
    assert first == second


def test_parser_reuse_leaks_no_option_state():
    # one process, one parser: options of earlier calls must not reach later ones
    first = run_cli(["analyze", "4E1+3E2", "--json"])
    code, text = run_cli(["analyze", "4E1+3E2"])
    assert code == OK and text.startswith("type: ") and '"payload"' not in text
    assert run_cli(["verify-tables", "--scope", "nonsense"])[0] == USAGE
    assert run_cli(["enumerate", "num[0,1,1,0,0,0,0,0,0,0]", "--kmax", "0"])[0] == USAGE
    last = run_cli(["analyze", "4E1+3E2", "--json"])
    assert first[0] == OK and json.loads(first[1])["status"] == "ok"
    assert last == first
