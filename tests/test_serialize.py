import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voacert import serialize
from voacert.config import spec_fields, spec_from_fields
from voacert.errors import ConfigError, ModelBugError
from voacert.graded_fock import (ModelSpec, build_model, heisenberg_spec,
                                 lattice_spec, virasoro_spec)
from voacert.scalars import rat_to_str, rational
from voacert.serialize import (ModelCache, load_model, model_to_dict,
                               save_model, spec_digest)


def test_spec_dict_round_trip():
    for spec in (heisenberg_spec(1, 6), lattice_spec(2, 6),
                 virasoro_spec("-22/5", 6), replace(virasoro_spec(1, 6),
                                                    pad=0)):
        assert spec_from_fields("spec", spec_fields(spec)) == spec
    assert spec_fields(replace(virasoro_spec("1/2", 14), pad=1)) == {
        "kind": "virasoro", "N": "14", "c": "1/2", "pad": "1"}


_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def _specs(draw):
    """A valid spec of any kind: a Heisenberg metric L L^T + I, a nonzero
    central charge, an even lattice square, a pad in [0, N] or None."""
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["heisenberg", "virasoro", "lattice"]))
    if kind == "lattice":
        return lattice_spec(2 * draw(st.integers(1, 4)), n)
    if kind == "virasoro":
        pad = draw(st.none() | st.integers(0, n))
        return ModelSpec("virasoro", n, c=draw(_RATIONALS.filter(bool)),
                         pad=pad)
    rank = draw(st.integers(1, 3))
    if not draw(st.booleans()):
        return heisenberg_spec(rank, n)
    low = [[draw(_RATIONALS) if j <= i else Fraction(0)
            for j in range(rank)] for i in range(rank)]
    metric = [[sum(low[i][k] * low[j][k] for k in range(rank)) + (i == j)
               for j in range(rank)] for i in range(rank)]
    return heisenberg_spec(rank, n, metric=metric)


@settings(max_examples=150, deadline=None)
@given(_specs(), st.none() | st.tuples(*[st.integers(-9, 9)] * 6))
def test_spec_fields_round_trip_through_the_config_parser(spec, corrupt):
    spec = replace(spec, corrupt=corrupt)
    fields = spec_fields(spec)
    assert all(isinstance(v, str) for v in fields.values())
    assert spec_from_fields("spec", fields) == spec


def test_digest_is_stable_and_distinguishing():
    a = spec_digest(heisenberg_spec(1, 6))
    assert a == spec_digest(heisenberg_spec(1, 6))
    assert a != spec_digest(heisenberg_spec(1, 8))
    assert a != spec_digest(lattice_spec(2, 6))


def test_a_built_corrupted_container_round_trips(tmp_path, capsys):
    from voacert.cli import main

    path = str(tmp_path / "m.json")
    assert main(["build", "--kind", "heisenberg", "--N", "6", "--corrupt",
                 "0,-1,2,0,0,1", "--out", path]) == 0
    corrupt = replace(heisenberg_spec(1, 6), corrupt=(0, -1, 2, 0, 0, 1))
    model = load_model(path)
    assert model.spec == corrupt
    block = model.gen_block(0, -1, 2)
    assert block.rows == build_model(corrupt).gen_block(0, -1, 2).rows
    assert block.rows != build_model(heisenberg_spec(1, 6)).gen_block(
        0, -1, 2).rows


def test_a_stored_corrupt_that_names_no_entry_is_a_malformed_spec(
        tmp_path):
    path = tmp_path / "model.json"
    save_model(build_model(heisenberg_spec(1, 6), corrupt=(0, -1, 2, 0, 0,
                                                           1)), str(path))
    data = json.loads(path.read_text())
    data["spec"]["corrupt"] = "9,-1,2,0,0,1"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelBugError, match="malformed spec .*'corrupt'"):
        load_model(str(path))


def test_an_explicit_default_pad_is_the_default_spec(tmp_path):
    spec = virasoro_spec("1/2", 6)
    padded = replace(spec, pad=3)
    assert padded == spec and hash(padded) == hash(spec)
    assert spec_fields(padded) == spec_fields(spec)
    assert spec_digest(padded) == spec_digest(spec)
    for one in (spec, padded):
        assert ModelCache(str(tmp_path)).get_or_build(one).n_internal == 9
    assert [p.name for p in tmp_path.iterdir()] == \
        [spec_digest(spec) + ".json"]


def _with_current_blocks(model):
    """Materialize generator 0's mode -1 on every source degree below N
    (every block is built on first use)."""
    for s in range(model.N):
        model.gen_block(0, -1, s)
    return model


def _with_vertex_blocks(model):
    """Materialize some e+/e- blocks of a lattice model and one current
    block (every block is built on first use)."""
    for gid in (1, 2):
        for m in (-1, 0, 1):
            model.gen_block(gid, m, 3)
    model.gen_block(0, -1, 2)
    return model


def test_save_load_round_trip(tmp_path, heis6, ising8, lat2_6):
    for model in (_with_current_blocks(heis6), _with_current_blocks(ising8),
                  _with_vertex_blocks(lat2_6)):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, str(first))
        again = load_model(str(first))
        save_model(again, str(second))
        assert second.read_bytes() == first.read_bytes()
        assert again.spec == model.spec and again.nu == model.nu
        assert any(entries for _, _, entries in
                   json.loads(first.read_text())["blocks"].values())


def test_load_rejects_tampered_container(tmp_path):
    model = build_model(heisenberg_spec(1, 6))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    data = json.loads(path.read_text())
    data["dims"][2] += 1
    path.write_text(json.dumps(data))
    with pytest.raises(ModelBugError):
        load_model(str(path))


def _change_entry(data):
    entry = data["blocks"]["1:0:3"][2][0]
    entry[2] = rat_to_str(rational(entry[2]) + 1)


def _add_entry(data):
    rows, cols, entries = data["blocks"]["0:-1:2"]
    filled = {(i, j) for i, j, _ in entries}
    entries.append(next([i, j, "1"] for i in range(rows)
                        for j in range(cols) if (i, j) not in filled))


TAMPERS = {
    "c": lambda d: d.update(c="2"),
    "state-label": lambda d: d["states"][1].reverse(),
    "truncated-dims": lambda d: d["dims"].pop(),
    "digest": lambda d: d.update(digest="0" * 64),
    "block-outside-truncation": lambda d: d["blocks"].update(
        {"1:-1:6": [1, 1, []]}),
    "malformed-block-key": lambda d: d["blocks"].update({"1:-1": [1, 1, []]}),
    "changed-entry": _change_entry,
    "added-entry": _add_entry,
    "blocks-int": lambda d: d.update(blocks=5),
    "blocks-null": lambda d: d.update(blocks=None),
    "blocks-list": lambda d: d.update(blocks=[1]),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_load_rejects_every_tampered_field(tmp_path, lat2_6, tamper):
    path = tmp_path / "model.json"
    save_model(_with_vertex_blocks(lat2_6), str(path))
    data = json.loads(path.read_text())
    TAMPERS[tamper](data)
    path.write_text(json.dumps(data))
    with pytest.raises(ModelBugError):
        load_model(str(path))


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ConfigError):
        load_model(str(path))


def test_cache_hits_disk_then_memory(tmp_path):
    cache = ModelCache(str(tmp_path))
    spec = heisenberg_spec(1, 5)
    first = cache.get_or_build(spec)
    assert (tmp_path / (spec_digest(spec) + ".json")).exists()
    # a fresh cache object reloads from disk and verifies
    second = ModelCache(str(tmp_path)).get_or_build(spec)
    assert second.nu == first.nu


def test_cache_keys_a_padded_spec_by_its_pad(tmp_path):
    spec = virasoro_spec("1/2", 6)
    padded = replace(spec, pad=2)
    assert spec_digest(padded) != spec_digest(spec)
    first = ModelCache(str(tmp_path)).get_or_build(padded)
    assert [p.name for p in tmp_path.iterdir()] == \
        [spec_digest(padded) + ".json"]
    again = ModelCache(str(tmp_path)).get_or_build(padded)
    assert again.spec == padded and again.n_internal == first.n_internal == 8
    assert ModelCache(str(tmp_path)).get_or_build(spec).n_internal == 9


@pytest.mark.parametrize("pad", [0, 1, 6])
def test_padded_virasoro_containers_round_trip(tmp_path, pad):
    model = build_model(virasoro_spec("1/2", 6), pad=pad)
    _with_current_blocks(model)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, str(first))
    again = load_model(str(first))
    assert again.n_internal == 6 + pad
    save_model(again, str(second))
    assert second.read_bytes() == first.read_bytes()


# a stored field is a string: an int pad (in range or not) and null are
# malformed, "7", "99" and "-1" lie outside [0, 6], the rest are no ints
@pytest.mark.parametrize("pad", [5, 13, 10 ** 6, "7", None, "99", "-1", "x",
                                 "1.5", ""])
def test_load_rejects_a_pad_outside_range_before_building(
        tmp_path, monkeypatch, pad):
    path = tmp_path / "model.json"
    save_model(build_model(virasoro_spec("1/2", 6), pad=1), str(path))
    data = json.loads(path.read_text())
    data["spec"]["pad"] = pad
    path.write_text(json.dumps(data))

    def no_build(*args, **kwargs):
        raise AssertionError("built a model for an invalid pad")

    monkeypatch.setattr(serialize, "build_model", no_build)
    with pytest.raises(ModelBugError, match="malformed spec"):
        load_model(str(path))


def test_load_catches_a_tampered_n_internal_after_the_rebuild(tmp_path):
    path = tmp_path / "model.json"
    save_model(build_model(virasoro_spec("1/2", 6), pad=1), str(path))
    data = json.loads(path.read_text())
    data["n_internal"] = 8
    path.write_text(json.dumps(data))
    with pytest.raises(ModelBugError, match="stored n_internal disagrees"):
        load_model(str(path))


def test_cache_rebuilds_containers_of_another_schema(tmp_path):
    cache = ModelCache(str(tmp_path))
    spec = heisenberg_spec(1, 5)
    cold = build_model(spec)
    legacy = model_to_dict(cold)  # the dense voacert-model/1 layout
    legacy["schema"] = "voacert-model/1"
    legacy["blocks"] = {
        key: [[rat_to_str(x) for x in row]
              for row in cold.gen_block(*map(int, key.split(":")))]
        for key in legacy["blocks"]}
    path = cache.path_for(spec)
    with open(path, "w") as fh:
        json.dump(legacy, fh)
    got = cache.get_or_build(spec)
    assert model_to_dict(got) == model_to_dict(cold)
    with open(path) as fh:
        assert json.load(fh)["schema"] == serialize.SCHEMA

    # voacert-model/2 stored a Virasoro pad's quotient: the pad degrees 9
    # to 12 of virasoro(1/2,8) held 5, 7, 8 and 11 words, not the 8, 12, 14
    # and 21 Verma words a rebuild keeps there
    spec = virasoro_spec("1/2", 8)
    cold = build_model(spec)
    quotient = build_model(virasoro_spec("1/2", cold.n_internal), pad=0)
    legacy = model_to_dict(cold)
    for key in ("dims", "states"):
        legacy[key] = model_to_dict(quotient)[key]
    assert legacy["dims"][9:] == [5, 7, 8, 11]
    assert model_to_dict(cold)["dims"][9:] == [8, 12, 14, 21]
    path = cache.path_for(spec)
    with open(path, "w") as fh:
        json.dump(legacy, fh)
    with pytest.raises(ModelBugError, match="stored dims disagrees"):
        load_model(path)  # read as the current schema, it is stale
    legacy["schema"] = "voacert-model/2"
    with open(path, "w") as fh:
        json.dump(legacy, fh)
    got = cache.get_or_build(spec)
    assert model_to_dict(got) == model_to_dict(cold)
    with open(path) as fh:
        assert json.load(fh)["schema"] == serialize.SCHEMA


def _container_of_another_spec(cache_dir):
    """Save a heisenberg(1,6) container at the path of heisenberg(1,5)."""
    path = ModelCache(str(cache_dir)).path_for(heisenberg_spec(1, 5))
    save_model(build_model(heisenberg_spec(1, 6)), path)


def test_cache_rejects_a_container_of_another_spec(tmp_path):
    _container_of_another_spec(tmp_path)
    with pytest.raises(ModelBugError, match="holds {'kind': 'heisenberg', "
                       "'N': '6'} not {'kind': 'heisenberg', 'N': '5'}; "
                       "stale or corrupted container"):
        ModelCache(str(tmp_path)).get_or_build(heisenberg_spec(1, 5))


def test_suite_on_a_container_of_another_spec_exits_with_numerical_code(
        tmp_path, capsys):
    from voacert.cli import EXIT_NUMERICAL, main

    cache = tmp_path / "cache"
    _container_of_another_spec(cache)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("model.h.kind = heisenberg\nmodel.h.N = 5\n"
                   "check.u.type = unitarity\ncheck.u.model = h\n"
                   f"cache_dir = {cache}\n")
    assert main(["suite", "--config", str(cfg), "--out",
                 str(tmp_path / "rep")]) == EXIT_NUMERICAL
    assert "holds {'kind': 'heisenberg', 'N': '6'} not" in \
        capsys.readouterr().err


def test_cache_rejects_a_container_of_another_pad(tmp_path):
    spec = virasoro_spec("1/2", 6)
    path = ModelCache(str(tmp_path)).path_for(spec)
    save_model(build_model(spec, pad=1), path)
    with pytest.raises(ModelBugError, match="holds {'kind': 'virasoro', "
                       "'N': '6', 'c': '1/2', 'pad': '1'} not {'kind': "
                       "'virasoro', 'N': '6', 'c': '1/2'}; stale or "
                       "corrupted container"):
        ModelCache(str(tmp_path)).get_or_build(spec)


def test_cache_propagates_disagreeing_containers(tmp_path):
    spec = heisenberg_spec(1, 5)
    path = ModelCache(str(tmp_path)).path_for(spec)
    save_model(build_model(spec), path)
    with open(path) as fh:
        data = json.load(fh)
    data["c"] = "2"
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(ModelBugError):
        ModelCache(str(tmp_path)).get_or_build(spec)


@pytest.mark.parametrize("content", ["truncated", "[1, 2]", "null"])
def test_cache_rejects_containers_that_are_not_json_objects(tmp_path,
                                                            content):
    spec = heisenberg_spec(1, 5)
    path = ModelCache(str(tmp_path)).path_for(spec)
    save_model(build_model(spec), path)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[:len(text) // 2] if content == "truncated" else content)
    with pytest.raises(ModelBugError, match="stale or corrupted"):
        ModelCache(str(tmp_path)).get_or_build(spec)


SPEC_TAMPERS = {
    "missing": lambda d: d.pop("spec"),
    "not-an-object": lambda d: d.update(spec=[1, 2]),
    "empty": lambda d: d.update(spec={}),
    "int-N": lambda d: d["spec"].update(N=5),
    "float-N": lambda d: d["spec"].update(N=5.0),
    "unknown-kind": lambda d: d["spec"].update(kind="bogus"),
    "bad-metric": lambda d: d["spec"].update(metric="x"),
    "zero-rank": lambda d: d["spec"].update(rank="0"),
}


@pytest.mark.parametrize("tamper", sorted(SPEC_TAMPERS))
def test_cache_rejects_a_container_without_a_valid_spec(tmp_path, tamper):
    spec = heisenberg_spec(1, 5)
    path = ModelCache(str(tmp_path)).path_for(spec)
    save_model(build_model(spec), path)
    with open(path) as fh:
        data = json.load(fh)
    SPEC_TAMPERS[tamper](data)
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(ModelBugError, match="spec"):
        ModelCache(str(tmp_path)).get_or_build(spec)


def test_suite_on_a_container_without_spec_exits_with_numerical_code(
        tmp_path, capsys):
    from voacert.cli import EXIT_NUMERICAL, main

    cache = tmp_path / "cache"
    path = ModelCache(str(cache)).path_for(heisenberg_spec(1, 5))
    with open(path, "w") as fh:
        json.dump({"schema": serialize.SCHEMA}, fh)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("model.h.kind = heisenberg\nmodel.h.N = 5\n"
                   "check.u.type = unitarity\ncheck.u.model = h\n"
                   f"cache_dir = {cache}\n")
    assert main(["suite", "--config", str(cfg), "--out",
                 str(tmp_path / "rep")]) == EXIT_NUMERICAL
    assert "missing or malformed spec" in capsys.readouterr().err


def test_suite_on_a_corrupted_cache_exits_with_numerical_code(tmp_path,
                                                              capsys):
    from voacert.cli import EXIT_NUMERICAL, main

    cache = tmp_path / "cache"
    path = ModelCache(str(cache)).path_for(heisenberg_spec(1, 5))
    with open(path, "w") as fh:
        fh.write('{"schema": "%s", "spec": {' % serialize.SCHEMA)
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("model.h.kind = heisenberg\nmodel.h.N = 5\n"
                   "check.u.type = unitarity\ncheck.u.model = h\n"
                   f"cache_dir = {cache}\n")
    assert main(["suite", "--config", str(cfg), "--out",
                 str(tmp_path / "rep")]) == EXIT_NUMERICAL
    assert "stale or corrupted" in capsys.readouterr().err


def test_save_model_replaces_the_container_atomically(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "model.json"
    save_model(build_model(heisenberg_spec(1, 5)), str(path))
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(serialize.os, "replace", fail)
    with pytest.raises(OSError):
        save_model(build_model(heisenberg_spec(1, 6)), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.parametrize("spec", [
    heisenberg_spec(1, 4), heisenberg_spec(2, 4, metric=[[2, 1], [1, 2]]),
    virasoro_spec("1/2", 4), lattice_spec(4, 4)],
    ids=["heisenberg", "heisenberg_metric", "virasoro", "lattice"])
def test_a_stored_spec_keeps_the_defaults_of_unread_fields(spec, tmp_path):
    # a container stores the fields the kind reads that are off their
    # defaults, so a kind's unread fields must load as their defaults
    stored = spec_from_fields(
        "spec", json.loads(json.dumps(spec_fields(spec))))
    assert stored == spec
    path = str(tmp_path / "model.json")
    save_model(build_model(spec), path)
    assert load_model(path).spec == spec
