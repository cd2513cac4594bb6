"""Tests of the benchmark's own code: input generation, answer checks, tracing.

    python3 -m pytest perfbench -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402

pkg = worker.import_package()


def _items(workload, seed, rounds=2):
    out = []
    for i, rnd in enumerate(W.rounds(workload, seed)):
        out.extend(rnd)
        if i + 1 == rounds:
            return out


def _texts(items):
    return [
        (it.get("expr"), it.get("literal"), it.get("kmax")) for it in items
    ]


def test_same_seed_same_inputs():
    for w in W.WORKLOADS:
        assert _texts(_items(w, 7)) == _texts(_items(w, 7))
        assert _texts(_items(w, 7)) != _texts(_items(w, 8))


def test_generated_types_are_valid_simple():
    for w in ("analyze-mix", "h1-sweep"):
        for seed in (0, 1):
            for it in _items(w, seed):
                d = pkg.parse(it["expr"])
                ok, why = pkg.validate_simple(d)
                assert ok, (it["expr"], why)
                terms, eps = W.parse_type(it["expr"])
                assert 2 <= len(terms) <= 10
                if it.get("record") is None:
                    assert all(1 <= c <= 4 for c, _ in terms)


def test_lattice_model_matches_package():
    for it in _items("analyze-mix", 3, rounds=1):
        terms, eps = W.parse_type(it["expr"])
        h = pkg.realize(pkg.parse(it["expr"]))
        assert h.num.coords == W.realize(terms)
        assert h.eps == eps
        assert W.pair(h.num.coords, h.num.coords) == h.square


def test_enumerate_inputs_are_relabelled_small_squares():
    items = _items("enumerate-deep", 5, rounds=1)
    assert len(items) == len(W.ENUMERATE_POOL)
    for it in items:
        base, kmax = it["base"].split("@")
        terms, _ = W.parse_type(base)
        h = W.parse_literal(it["literal"])
        assert W.pair(h, h) == W.pair(W.realize(terms), W.realize(terms))
        assert 2 <= W.pair(h, h) <= 8 and 2 <= int(kmax) <= 5
        assert W.pair(h, W.DELTA) == W.pair(W.realize(terms), W.DELTA)


def test_database_corpus_matches_package_database():
    corpus = {r["label"]: r for r in W.load_database_types()}
    assert len(corpus) == 76
    recs = list(pkg.all_tabulated_components())
    recs += [r for g in range(3, 21) for r in pkg.components(g, 2)]
    recs += [r for g in range(2, 26) for r in pkg.components(g, 1)]
    assert sorted(r.label for r in recs) == sorted(corpus)
    for r in recs:
        row = corpus[r.label]
        assert pkg.canonical_type(pkg.parse(row["type"])) == pkg.canonical_type(r.dtype)
        assert (row["g"], row["phi"], row["fiber_dim_chi"]) == (r.g, r.phi, r.fiber_dim_chi)
        assert tuple(row["split"]) == r.h1_split and row["cap"] == r.extendability_cap


def test_checks_accept_real_answers_and_reject_wrong_ones():
    for w in W.WORKLOADS:
        checker = W.Checker(w, pkg)
        for it in W.first_items(w, 11, 4 if w != "enumerate-deep" else 2):
            code, out = W.run_op(w, pkg, it)
            checker.check(it, code, out)
    it = W.first_items("analyze-mix", 11, 1)[0]
    code, out = W.run_op("analyze-mix", pkg, it)
    bad = out.replace('"phi": ', '"phi": 1', 1)
    try:
        W.Checker("analyze-mix", pkg).check(it, code, bad)
    except W.CheckError:
        pass
    else:
        raise AssertionError("a wrong phi passed the check")


def test_percentile():
    assert worker.percentile([1, 2, 3, 4, 5], 50) == 3
    assert worker.percentile([0, 10], 95) == 9.5


def test_tracer_counts_both_phi_bindings_and_restores_them():
    originals = {m: dict(vars(getattr(pkg, m))) for m in tracing.MODULES}
    post_init = pkg.NumClass.__post_init__
    tracer = tracing.Tracer(pkg)
    tracer.install()
    try:
        for i, it in enumerate(W.first_items("analyze-mix", 2, 3)):
            tracer.begin(i)
            W.run_op("analyze-mix", pkg, it)
            tracer.end()
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(3, None, 0)
    assert layers["surface.phi_calls_per_op"][0] == 2.0
    assert layers["lattice.inner_calls_per_op"][0] > 0
    for m in tracing.MODULES:
        assert dict(vars(getattr(pkg, m))) == originals[m]
    assert pkg.NumClass.__post_init__ is post_init
    assert pkg.decomposition._phi is pkg.surface.phi
    assert pkg.cohomology.coh.cache_info() is not None


def test_self_time_subtracts_children():
    tracer = tracing.Tracer(pkg)
    tracer.names = ["cli.main", "surface.phi"]
    tracer.sites = ["cli"]
    tracer.spans = [
        (0, 0, 0, 10_000_000, -1, 0, None),
        (1, 0, 1_000_000, 4_000_000, 0, 0, (2, 3)),
        (1, 0, 5_000_000, 9_000_000, 0, 0, (1, 3)),
    ]
    layers = tracer.layer_metrics(1, None, 2048)
    assert layers["cli.self_ms_per_op"][0] == 3.0
    assert layers["surface.phi_ms_per_op"][0] == 7.0
    assert layers["surface.phi_layer_yield"][0] == 0.5
    assert layers["cli.output_kib_per_op"][0] == 2.0
