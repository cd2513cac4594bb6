"""Span tracing of the package's six layers from outside the package.

The tracer rebinds chosen functions wherever a module binds them: the
defining module and every consumer that did `from .x import y`, under
whatever alias (decomposition binds surface.phi as `_phi`).  Patching the
defining module alone would miss those consumers.  cohomology.coh is never
rebound: its lru_cache recursion and cache_info() must stay intact, so the
coh cache is read through cache_info() instead.

A span is (function, binding site, start ns, end ns, parent span, op id,
observation).  Spans stay in memory and are written out at the end; self
times are derived from them.  lattice.inner and NumClass construction are
too hot for spans and are only counted.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

from workloads import pair

MODULES = ("lattice", "surface", "cohomology", "decomposition", "moduli", "cli")

# (defining module, function) -> observation taken from (args, result)
SPANNED = {
    ("cli", "main"): None,
    ("surface", "phi"): lambda a, r: (r.value, math.isqrt(pair(a[0].num.coords, a[0].num.coords))),
    ("surface", "enumerate_isotropic"): lambda a, r: len(r),
    ("cohomology", "k3_coh"): None,
    ("decomposition", "parse"): None,
    ("decomposition", "realize"): None,
    ("decomposition", "validate_simple"): None,
    ("decomposition", "canonical_type"): None,
    ("decomposition", "component_of"): None,
    ("moduli", "h1_tangent_k3"): lambda a, r: r.exact,
    ("moduli", "h1_bound_double_cover"): lambda a, r: r.exact,
    ("moduli", "h1_bound_embedding"): lambda a, r: r.exact,
    ("moduli", "fiber_dimension"): None,
    ("moduli", "fiber_dimension_curves"): None,
    ("moduli", "enriques_split"): None,
    ("moduli", "extendability_cap"): None,
}
RAISED = "raised"


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.on = False
        self.op = -1
        self.spans: list = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self.sites: list[str] = []
        self.inner_calls = 0
        self.numclass_new = 0
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: getattr(self.pkg, m) for m in MODULES}
        sites = dict(mods, package=self.pkg)
        for (mod, fn), observe in SPANNED.items():
            orig = getattr(mods[mod], fn)
            fid = self._intern(self.names, f"{mod}.{fn}")
            for site, smod in sites.items():
                for attr, value in list(vars(smod).items()):
                    if value is orig:
                        sid = self._intern(self.sites, site)
                        self._rebind(smod, attr, self._span_wrapper(orig, fid, sid, observe))
        inner = mods["lattice"].inner
        for smod in sites.values():
            for attr, value in list(vars(smod).items()):
                if value is inner:
                    self._rebind(smod, attr, self._inner_counter(inner))
        num_class = mods["lattice"].NumClass
        self._rebind(num_class, "__post_init__", self._init_counter(num_class.__post_init__))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    @staticmethod
    def _intern(table: list[str], name: str) -> int:
        if name not in table:
            table.append(name)
        return table.index(name)

    def _rebind(self, obj, attr: str, wrapper) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _span_wrapper(self, orig, fid: int, sid: int, observe):
        tracer = self
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return orig(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                spans[idx] = (fid, sid, t0, clock(), parent, tracer.op, RAISED)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            obs = observe(args, result) if observe is not None else None
            spans[idx] = (fid, sid, t0, t1, parent, tracer.op, obs)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _inner_counter(self, orig):
        tracer = self

        def inner(a, b):
            if tracer.on:
                tracer.inner_calls += 1
            return orig(a, b)

        return inner

    def _init_counter(self, orig):
        tracer = self

        def __post_init__(obj):
            if tracer.on:
                tracer.numclass_new += 1
            orig(obj)

        return __post_init__

    # -- recording ------------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self.on = True

    def end(self) -> None:
        self.on = False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (fid, sid, t0, t1, parent, op, obs) in enumerate(self.spans):
                row = [op, idx, parent, self.names[fid], self.sites[sid], t0, t1, obs]
                fh.write(json.dumps(row) + "\n")

    # -- derived per-layer metrics -------------------------------------------

    def layer_metrics(
        self, ops: int, coh_cache: dict | None, output_bytes: int, scale: float = 1.0
    ) -> dict:
        """Per-op layer numbers from the spans and counters of `ops` ops.

        Span times are multiplied by `scale`, the run's speed normalization.
        """
        child_ns = defaultdict(int)
        for fid, sid, t0, t1, parent, op, obs in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls = defaultdict(int)
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        obs_by = defaultdict(list)
        site_calls = defaultdict(int)
        for idx, (fid, sid, t0, t1, parent, op, obs) in enumerate(self.spans):
            name = self.names[fid]
            calls[name] += 1
            incl[name] += t1 - t0
            self_ns[name] += t1 - t0 - child_ns[idx]
            site_calls[(name, self.sites[sid])] += 1
            obs_by[name].append(obs)

        def per_op(x: float) -> float:
            return x / ops

        def ms(ns: int) -> float:
            return ns * scale / 1e6

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        phi_obs = [o for o in obs_by["surface.phi"] if o != RAISED]
        enum_counts = [o for o in obs_by["surface.enumerate_isotropic"] if o != RAISED]
        h1_obs = obs_by["moduli.h1_tangent_k3"]
        bound_obs = obs_by["moduli.h1_bound_double_cover"] + obs_by["moduli.h1_bound_embedding"]
        comp_obs = obs_by["decomposition.component_of"]
        enum_self_ms = ms(self_ns["surface.enumerate_isotropic"])
        if coh_cache is None:
            hit_ratio, entries = 0.0, 0
        else:
            hit_ratio = ratio(coh_cache["hits"], coh_cache["hits"] + coh_cache["misses"])
            entries = coh_cache["entries"]
        return {
            "surface.phi_calls_per_op": (per_op(calls["surface.phi"]), "count"),
            "surface.phi_ms_per_op": (per_op(ms(incl["surface.phi"])), "ms"),
            "surface.phi_layer_yield": (
                ratio(sum(v for v, _ in phi_obs), sum(k for _, k in phi_obs)),
                "ratio",
            ),
            "surface.enumerate_self_ms_per_op": (per_op(enum_self_ms), "ms"),
            "surface.enumerate_calls_per_op": (
                per_op(calls["surface.enumerate_isotropic"]),
                "count",
            ),
            "surface.classes_per_ms": (ratio(sum(enum_counts), enum_self_ms), "1/ms"),
            "cohomology.k3_coh_calls_per_op": (per_op(calls["cohomology.k3_coh"]), "count"),
            "cohomology.k3_coh_ms_per_op": (per_op(ms(incl["cohomology.k3_coh"])), "ms"),
            "cohomology.coh_cache_hit_ratio": (hit_ratio, "ratio"),
            "cohomology.coh_cache_entries": (entries, "count"),
            "lattice.numclass_new_per_op": (per_op(self.numclass_new), "count"),
            "lattice.inner_calls_per_op": (per_op(self.inner_calls), "count"),
            "moduli.h1_calls_per_op": (per_op(calls["moduli.h1_tangent_k3"]), "count"),
            "moduli.h1_self_ms_per_op": (per_op(ms(self_ns["moduli.h1_tangent_k3"])), "ms"),
            "moduli.h1_exact_ratio": (ratio(h1_obs.count(True), len(h1_obs)), "ratio"),
            "moduli.bound_calls_per_op": (per_op(len(bound_obs)), "count"),
            "moduli.bound_exact_ratio": (ratio(bound_obs.count(True), len(bound_obs)), "ratio"),
            "moduli.enumerate_calls": (
                site_calls[("surface.enumerate_isotropic", "moduli")],
                "count",
            ),
            "moduli.fiber_dimension_ms_per_op": (
                per_op(ms(incl["moduli.fiber_dimension"])),
                "ms",
            ),
            "decomposition.parse_ms_per_op": (
                per_op(ms(incl["decomposition.parse"])),
                "ms",
            ),
            "decomposition.component_of_self_ms_per_op": (
                per_op(ms(self_ns["decomposition.component_of"])),
                "ms",
            ),
            "decomposition.component_hit_ratio": (
                ratio(len(comp_obs) - comp_obs.count(RAISED), len(comp_obs)),
                "ratio",
            ),
            "cli.self_ms_per_op": (per_op(ms(self_ns["cli.main"])), "ms"),
            "cli.output_kib_per_op": (per_op(output_bytes / 1024), "KiB"),
        }
