"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public and internal boundaries of each ``voacert``
module from outside the package: every wrapped call records one span (name,
start, end, parent span) and a few counters measured where the work
happens.  ``from .x import f`` binds ``f`` separately in every importing
module, so each wrapper is installed in every ``voacert`` namespace that
holds the original object.  Methods are patched on their classes.

Self time of a span is its duration minus the time covered by its direct
child spans; calls nest strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import speed

# Every boundary the traced run records.  Names read "<module>.<layer>".
BOUNDARIES = (
    "mode_engine.state_block", "mode_engine.vec_block",
    "mode_engine.residual", "mode_engine.state_product",
    "exactlinalg.mat_add", "exactlinalg.mat_scale", "exactlinalg.mat_sub",
    "exactlinalg.compose", "exactlinalg.mat_mul", "exactlinalg.rref",
    "exactlinalg.inverse",
    "graded_fock.build_model", "graded_fock.gen_block",
    "graded_fock.vertex_mode_block",
    "norm_lab.graded_norm", "norm_lab.ortho_block", "norm_lab.svd",
    "unitary_structure.gram", "unitary_structure.exact_elim",
    "unitary_structure.cholesky", "unitary_structure.star",
    "unitary_structure.pairing", "unitary_structure.family_of",
    "bound_certifier.certify",
    "serialize.save_model", "serialize.load_model",
    "cli.run_check", "cli.run_suite", "config.parse_config",
)
PROBE = "perfbench.probe"


class Tracer:
    """Spans in flat arrays plus per-name call, self-time and counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.svd_seen = set()
        self.models = []

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def exit(self, idx: int):
        end = time.perf_counter()
        self.span_end[idx] = end
        _, covered = self._stack.pop()
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def top_level_s(self, t0: float, t1: float) -> float:
        """Time in root spans starting inside [t0, t1], less speed probes."""
        probe = self._ids.get(PROBE)
        total = 0.0
        for i, parent in enumerate(self.span_parent):
            if not t0 <= self.span_start[i] <= t1:
                continue
            dur = self.span_end[i] - self.span_start[i]
            if self.span_name[i] == probe:
                total -= dur if parent != -1 else 0.0
            elif parent == -1:
                total += dur
        return total

    def write_sidecar(self, path: str, extra: dict):
        """Write every span and the per-name totals as gzipped JSON."""
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "start", "end"],
            "spans": [list(self.span_name), list(self.span_parent),
                      list(self.span_start), list(self.span_end)],
            "totals": {n: {"calls": self.calls[n], "self_s": self.self_s[n],
                           "total_s": self.total_s[n]}
                       for n in self.names},
            "counts": dict(self.counts),
        }
        payload.update(extra)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """Span around fn.  before(args) -> state; after(state, args, out)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(args) if before is not None else None
        idx = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if after is not None:
            after(state, args, out)
        return out

    return traced


def _entries(mat) -> int:
    return len(mat) * len(mat[0]) if mat else 0


class Installation:
    """Patches the ``voacert`` modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def function(self, module_name: str, attr: str, name: str, **hooks):
        """Wrap module.attr and rebind it in every namespace holding it."""
        module = sys.modules[f"voacert.{module_name}"]
        original = getattr(module, attr)
        traced = _wrap(self.tracer, name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "voacert" and not mod_name.startswith("voacert."):
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def method(self, cls, attr: str, name: str, **hooks):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(self.tracer, name, original, **hooks))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every boundary in BOUNDARIES; returns the undo handle."""
    from voacert import graded_fock, unitary_structure

    inst = Installation(tracer)
    counts = tracer.counts

    def count_entries(name, of_input=False):
        def after(_, args, out):
            counts[f"{name}.entries"] += _entries(args[0] if of_input
                                                  else out)
        return after

    # -- mode_engine
    def state_block_before(args):
        model, state, k, s = args
        return (state, k, s) in model._state_mode_cache

    def state_block_after(was_cached, args, _):
        model, state, k, s = args
        if not was_cached and (state, k, s) in model._state_mode_cache:
            counts["mode_engine.state_block.cache_miss"] += 1

    inst.function("mode_engine", "_state_block", "mode_engine.state_block",
                  before=state_block_before, after=state_block_after)
    inst.function("mode_engine", "_vec_block", "mode_engine.vec_block")
    for attr in ("borcherds_residual", "skewsymmetry_residual",
                 "commutator_residual", "translation_residual"):
        inst.function("mode_engine", attr, "mode_engine.residual")
    inst.function("mode_engine", "state_product", "mode_engine.state_product")

    # -- exactlinalg
    def mat_add_after(_, args, out):
        counts["exactlinalg.mat_add.entries"] += _entries(out)
        counts["exactlinalg.mat_add.nonzero"] += sum(
            1 for row in args[1] for x in row if x)

    inst.function("exactlinalg", "mat_add", "exactlinalg.mat_add",
                  after=mat_add_after)
    for attr in ("mat_scale", "mat_sub", "compose", "mat_mul"):
        name = f"exactlinalg.{attr}"
        inst.function("exactlinalg", attr, name, after=count_entries(name))
    for attr in ("rref", "inverse"):
        name = f"exactlinalg.{attr}"
        inst.function("exactlinalg", attr, name,
                      after=count_entries(name, of_input=True))

    # -- graded_fock
    def build_after(_, args, model):
        tracer.models.append(model)

    inst.function("graded_fock", "build_model", "graded_fock.build_model",
                  after=build_after)

    def gen_block_before(args):
        model, gid, m, src = args
        return src in model._gen_blocks.get((gid, m), ())

    def gen_block_after(was_stored, args, _):
        model, gid, m, src = args
        if not was_stored and src in model._gen_blocks.get((gid, m), ()):
            counts["graded_fock.gen_block.materialized"] += 1

    inst.method(graded_fock.Model, "gen_block", "graded_fock.gen_block",
                before=gen_block_before, after=gen_block_after)
    inst.function("graded_fock", "vertex_mode_block",
                  "graded_fock.vertex_mode_block")

    # -- norm_lab
    inst.function("norm_lab", "graded_norm", "norm_lab.graded_norm")
    inst.function("norm_lab", "_ortho_block", "norm_lab.ortho_block")

    def svd_before(args):
        mat = args[0]
        key = hashlib.blake2b(mat.tobytes(), digest_size=16).digest()
        tracer.svd_seen.add((mat.shape, key))

    inst.function("norm_lab", "_sigma_max", "norm_lab.svd",
                  before=svd_before)

    # -- unitary_structure
    fam = unitary_structure.GramFamily

    def gram_before(args):
        return args[1] in args[0]._mats

    def gram_after(was_built, args, _):
        if not was_built:
            counts["unitary_structure.gram.degrees"] += 1

    inst.method(fam, "matrix", "unitary_structure.gram",
                before=gram_before, after=gram_after)
    for attr in ("positive_definite", "exact_cholesky", "radical"):
        inst.method(fam, attr, "unitary_structure.exact_elim")
    inst.method(fam, "cholesky", "unitary_structure.cholesky")
    for attr in ("pairing", "pair_states"):
        inst.method(fam, attr, "unitary_structure.pairing")
    inst.function("unitary_structure", "star", "unitary_structure.star")
    inst.function("unitary_structure", "family_of",
                  "unitary_structure.family_of")

    # -- bound_certifier: every certifier shares one boundary
    def certify_after(_, args, out):
        reports = out if isinstance(out, tuple) else (out,)
        counts["bound_certifier.certify.cells"] += sum(
            len(getattr(r, "cells", ())) for r in reports)

    for attr in ("certify_virasoro_bound", "certify_v1_bound",
                 "certify_product_lemma", "certify_primary_bound",
                 "certify_pair_bound", "certify_zero_mode_product",
                 "certify_orbifold_chain", "trace_domination_check",
                 "orbifold_average"):
        inst.function("bound_certifier", attr, "bound_certifier.certify",
                      after=certify_after)

    # -- serialize, cli, config
    def save_after(_, args, out):
        counts["serialize.save_model.bytes"] += os.path.getsize(args[1])

    inst.function("serialize", "save_model", "serialize.save_model",
                  after=save_after)

    def load_after(_, args, model):
        tracer.models.append(model)

    inst.function("serialize", "load_model", "serialize.load_model",
                  after=load_after)
    inst.function("cli", "run_check", "cli.run_check")

    def suite_after(_, args, out):
        config, output_dir = args[0], args[1] if len(args) > 1 else None
        path = os.path.join(output_dir or config.output_dir, "suite.json")
        counts["cli.suite_json.bytes"] += os.path.getsize(path)

    inst.function("cli", "run_suite", "cli.run_suite", after=suite_after)
    inst.function("config", "parse_config", "config.parse_config")
    # the benchmark's own speed probes, so no layer's self time holds them
    inst.method(speed.SpeedMeter, "probe", PROBE)
    return inst


# -- per-layer metrics --------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    c, s, n = tracer.calls, tracer.self_s, tracer.counts
    out = {}

    def calls_self(*names):
        for name in names:
            out[f"{name}.calls"] = (c[name], "count")
            out[f"{name}.self_s"] = (s[name], "s")

    sb = "mode_engine.state_block"
    calls_self(sb)
    out[f"{sb}.cache_miss"] = (n[f"{sb}.cache_miss"], "count")
    out[f"{sb}.hit_ratio"] = (1.0 - _ratio(n[f"{sb}.cache_miss"], c[sb])
                              if c[sb] else 0.0, "ratio")
    calls_self("mode_engine.vec_block", "mode_engine.residual",
               "mode_engine.state_product")
    for op in ("mat_add", "mat_scale", "compose", "mat_mul", "mat_sub",
               "rref", "inverse"):
        name = f"exactlinalg.{op}"
        calls_self(name)
        out[f"{name}.entries"] = (n[f"{name}.entries"], "count")
    out["exactlinalg.mat_add.nonzero_frac"] = (
        _ratio(n["exactlinalg.mat_add.nonzero"],
               n["exactlinalg.mat_add.entries"]), "fraction")
    calls_self("graded_fock.build_model", "graded_fock.vertex_mode_block")
    out["graded_fock.gen_block.materialized"] = (
        n["graded_fock.gen_block.materialized"], "count")
    out["graded_fock.gen_block.self_s"] = (s["graded_fock.gen_block"], "s")
    calls_self("norm_lab.graded_norm", "norm_lab.ortho_block",
               "norm_lab.svd")
    out["norm_lab.svd.distinct"] = (len(tracer.svd_seen), "count")
    out["norm_lab.svd.useful_ratio"] = (
        _ratio(len(tracer.svd_seen), c["norm_lab.svd"]), "ratio")
    calls_self(*(f"unitary_structure.{k}" for k in
                 ("gram", "exact_elim", "cholesky", "star", "pairing")))
    out["unitary_structure.gram.degrees"] = (
        n["unitary_structure.gram.degrees"], "count")
    calls_self("bound_certifier.certify")
    out["bound_certifier.certify.cells"] = (
        n["bound_certifier.certify.cells"], "count")
    out["serialize.save_model.s"] = (tracer.total_s["serialize.save_model"],
                                     "s")
    out["serialize.save_model.bytes"] = (n["serialize.save_model.bytes"],
                                         "bytes")
    out["serialize.load_model.s"] = (tracer.total_s["serialize.load_model"],
                                     "s")
    calls_self("cli.run_check")
    out["cli.run_suite.self_s"] = (s["cli.run_suite"], "s")
    out["cli.suite_json.bytes"] = (n["cli.suite_json.bytes"], "bytes")
    out["config.parse_config.s"] = (tracer.total_s["config.parse_config"], "s")
    out["mode_engine.cache_entries"] = (
        sum(len(m._state_mode_cache) for m in tracer.models), "count")
    return out
