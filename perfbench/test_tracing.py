"""Checks of the traced run, on tiny versions of the three workloads.

Run from the repository root:

    python3 -m pytest -q perfbench/test_tracing.py
"""

import pytest

import run
import spans
import workloads
from voacert.graded_fock import heisenberg_spec, lattice_spec, virasoro_spec


class TinyAxioms(workloads.Axioms):
    tuples_per_identity = 3
    specs = (heisenberg_spec(1, 4), virasoro_spec("1/2", 6),
             lattice_spec(2, 4))


class TinyCertify(workloads.Certify):
    models = {
        "vir_half": (virasoro_spec("1/2", 6), 1),
        "vir_one": (virasoro_spec(1, 6), 1),
        "heis_v1": (heisenberg_spec(1, 4), None),
        "lat_v1": (lattice_spec(2, 4), None),
        "heis8": (heisenberg_spec(1, 4), None),
        "ising8": (virasoro_spec("1/2", 4), None),
        "lat2_8": (lattice_spec(2, 4), None),
        "lat4": (lattice_spec(4, 4), None),
    }
    virasoro_window = v1_window = product_window = primary_window = (1, 2)


def tiny_config(variant, cache_dir):
    q, s = workloads.SUITE_VARIANTS[variant]
    cur = workloads._selector(lattice_spec(2, 4), workloads.CURRENT)
    return "\n".join([
        "model.lat.kind = lattice", "model.lat.q = 2", "model.lat.N = 4",
        "model.vir.kind = virasoro", "model.vir.c = 1/2",
        "model.vir.N = 6", "model.vir.pad = 1",
        "check.a.type = unitarity", "check.a.model = lat",
        "check.b.type = norms", "check.b.model = lat",
        "check.b.state = top:1", "check.b.m_max = 1", "check.b.n_max = 2",
        "check.c.type = orbifold", "check.c.model = lat",
        f"check.c.state = {cur}", f"check.c.s = {s}",
        "check.c.n_max = 2",
        "check.d.type = trace_domination", "check.d.model = lat",
        f"check.d.state = {cur}", f"check.d.q = {q}",
        "check.d.n_max = 2",
        "check.e.type = virasoro_bound", "check.e.model = vir",
        "check.e.state = nu", "check.e.m_max = 1", "check.e.n_max = 2",
        f"cache_dir = {cache_dir}", ""])


class TinySuite(workloads.Suite):
    config_text = staticmethod(tiny_config)


TINY = (TinyAxioms(), TinyCertify(), TinySuite())


@pytest.fixture(scope="module")
def rounds():
    """(untraced outcome, traced outcome) per workload, one shared tracer."""
    tracer = spans.Tracer()
    out = {}
    for workload in TINY:
        plain = run.run_round(workload, 5).out
        patches = spans.install(tracer)
        try:
            traced = run.run_round(workload, 5).out
        finally:
            patches.remove()
        out[workload.name] = (plain, traced)
    return tracer, out


def test_every_boundary_records_spans(rounds):
    tracer, _ = rounds
    missing = [b for b in spans.BOUNDARIES if tracer.calls[b] < 1]
    assert not missing
    # the workloads' own set-up builds are traced too
    assert tracer.calls["graded_fock.build_model"] >= \
        len(TinyAxioms.specs) + len(TinyCertify.models)


def test_patches_are_removed(rounds):
    from voacert import bound_certifier, cli, mode_engine, norm_lab
    from voacert.unitary_structure import GramFamily

    for fn in (mode_engine._state_block, norm_lab._vec_block,
               bound_certifier.graded_norm, cli.family_of,
               GramFamily.matrix):
        assert not hasattr(fn, "__wrapped__")


@pytest.mark.parametrize("name", [w.name for w in TINY])
def test_traced_outputs_equal_untraced(rounds, name):
    plain, traced = rounds[1][name]
    assert traced.attempted == plain.attempted > 0
    assert traced.digest == plain.digest


def test_self_time_is_never_negative(rounds):
    tracer, _ = rounds
    assert all(v > -1e-6 for v in tracer.self_s.values())
    metrics = spans.layer_metrics(tracer)
    assert metrics["mode_engine.state_block.cache_miss"][0] <= \
        metrics["mode_engine.state_block.calls"][0]


def test_benchmark_json_names_every_metric():
    import json

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {k: unit for k, (_, unit) in
               spans.layer_metrics(spans.Tracer()).items()}
    emitted.update({"trace.overhead_s": "s",
                    "trace.unaccounted_share": "fraction"})
    assert names == emitted
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
