import json
import os
import pathlib
import re

import pytest

from voacert import cli
from voacert.cli import (CHECKS, EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION,
                         FIELDS, _build_parser, main, resolve_state,
                         run_check, run_suite)
from voacert.config import KIND_FIELDS, MODEL_FIELDS, parse_config
from voacert.errors import ConfigError
from voacert.graded_fock import build_model, heisenberg_spec, lattice_spec
from voacert.norm_lab import norm_table
from voacert.scalars import Q
from voacert.serialize import ModelCache, load_model

SUITE = """
model.h.kind = heisenberg
model.h.N = 6

check.ax.type = axioms
check.ax.model = h
check.ax.samples = 30

check.un.type = unitarity
check.un.model = h

check.nm.type = norms
check.nm.model = h
check.nm.state = basis:1:0
check.nm.m_max = 2
check.nm.n_max = 4
"""


def test_resolve_state_grammar(heis8):
    assert resolve_state(heis8, "nu") == heis8.nu
    assert resolve_state(heis8, "vac").terms
    one = resolve_state(heis8, "basis:1:0")
    combo = resolve_state(heis8, "2*basis:1:0+1/2*nu")
    assert combo == one.scale(Q(2)) + heis8.nu.copy().scale(Q(1, 2))
    with pytest.raises(ConfigError):
        resolve_state(heis8, "mystery")


def test_axioms_verb(capsys):
    code = main(["axioms", "--kind", "heisenberg", "--N", "6",
                 "--samples", "20"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_build_and_norms_verbs(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["build", "--kind", "heisenberg", "--N", "5",
                 "--out", str(out)]) == EXIT_OK
    assert load_model(str(out)).spec == heisenberg_spec(1, 5)
    capsys.readouterr()
    csv = tmp_path / "norms.csv"
    assert main(["norms", "--kind", "heisenberg", "--N", "6",
                 "--state", "basis:1:0", "--m-max", "2", "--n-max", "4",
                 "--csv", str(csv)]) == EXIT_OK
    assert csv.read_text().startswith("m,n,norm")


def test_certify_verb(capsys):
    code = main(["certify", "--kind", "virasoro", "--c", "1/2", "--N", "8",
                 "--check", "virasoro_bound", "--m-max", "2",
                 "--n-max", "4"])
    assert code == EXIT_OK


def test_decimal_values_parse_as_rationals(tmp_path, capsys):
    # a damping or a metric entry read "p/q" only, while c took decimals
    assert main(["certify", "--kind", "lattice", "--q", "2", "--N", "6",
                 "--check", "trace_domination", "--state", "top:1",
                 "--damping", "0.5", "--n-max", "3"]) == EXIT_OK
    text = ("model.h.kind = heisenberg\nmodel.h.N = 4\n"
            "model.h.metric = 0.5\ncheck.un.type = unitarity\n"
            "check.un.model = h\n")
    assert parse_config(text).models["h"].metric == ((Q(1, 2),),)
    path = tmp_path / "suite.cfg"
    path.write_text(text)
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_OK


def test_bad_usage_exits_with_config_code(capsys):
    assert main(["certify", "--kind", "virasoro", "--N", "8",
                 "--check", "virasoro_bound"]) == EXIT_CONFIG
    assert main(["axioms", "--kind", "lattice", "--N", "6"]) == EXIT_CONFIG


@pytest.mark.parametrize("verb", ["certify", "build"])
def test_a_zero_central_charge_exits_with_config_code(tmp_path, capsys,
                                                      verb):
    tail = (["--check", "unitarity"] if verb == "certify" else
            ["--out", str(tmp_path / "model.json")])
    assert main([verb, "--kind", "virasoro", "--c", "0", "--N", "6"] +
                tail) == EXIT_CONFIG
    assert "'c'" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_suite_runs_and_is_deterministic(tmp_path):
    config = parse_config(SUITE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    bundle = run_suite(config, str(out_a), jobs=1)
    assert bundle["pass"] is True
    run_suite(config, str(out_b), jobs=1)
    blob_a = (out_a / "suite.json").read_bytes()
    blob_b = (out_b / "suite.json").read_bytes()
    assert blob_a == blob_b


def test_suite_parallel_matches_sequential(tmp_path):
    config = parse_config(SUITE)
    out_a = tmp_path / "seq"
    out_b = tmp_path / "par"
    run_suite(config, str(out_a), jobs=1)
    run_suite(config, str(out_b), jobs=3)
    assert (out_a / "suite.json").read_bytes() == \
        (out_b / "suite.json").read_bytes()


@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_suite_reads_and_writes_the_cache(tmp_path, jobs):
    """Workers share one cache; with several checks per model, more than
    one worker may build and save the same container at once."""
    cache = tmp_path / "cache"
    config = parse_config(SUITE + "model.l.kind = lattice\nmodel.l.q = 2\n"
                          "model.l.N = 6\ncheck.lu.type = unitarity\n"
                          f"check.lu.model = l\ncache_dir = {cache}\n")
    run_suite(config, str(tmp_path / "par"), jobs=jobs)
    for spec in config.models.values():
        assert os.path.exists(ModelCache(str(cache)).path_for(spec))
    run_suite(config, str(tmp_path / "seq"), jobs=1)
    assert (tmp_path / "par" / "suite.json").read_bytes() == \
        (tmp_path / "seq" / "suite.json").read_bytes()


def test_corrupted_model_fails_suite(tmp_path, capsys):
    text = SUITE + "model.h.corrupt = 0,-1,2,0,0,1\n"
    path = tmp_path / "suite.cfg"
    path.write_text(text)
    code = main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")])
    assert code == EXIT_VIOLATION


def test_export_verb(tmp_path, capsys):
    config = parse_config(SUITE)
    out = tmp_path / "rep"
    run_suite(config, str(out), jobs=1)
    dest = tmp_path / "export"
    os.makedirs(dest)
    code = main(["export", "--bundle", str(out / "suite.json"),
                 "--format", "csv", "--out", str(dest)])
    assert code == EXIT_OK
    written = list(dest.iterdir())
    assert written
    for p in written:
        assert p.read_text().startswith("m,n,lhs,rhs,margin")


def test_bundles_are_written_whole_or_not_at_all(tmp_path, monkeypatch):
    """suite.json and bundle.json go through one rename: a failing rename
    leaves neither the target nor a temp file, and a written bundle is
    json.dump's bytes."""
    config = parse_config(SUITE)
    out, dest = tmp_path / "rep", tmp_path / "export"
    bundle = run_suite(config, str(out), jobs=1)
    assert (out / "suite.json").read_text() == json.dumps(
        bundle, indent=2, sort_keys=True) + "\n"
    os.makedirs(dest)
    assert main(["export", "--bundle", str(out / "suite.json"),
                 "--format", "json", "--out", str(dest)]) == EXIT_OK
    assert (dest / "bundle.json").read_bytes() == \
        (out / "suite.json").read_bytes()

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    kept = tmp_path / "kept.json"
    kept.write_bytes((out / "suite.json").read_bytes())
    for path in (out / "suite.json", dest / "bundle.json"):
        path.unlink()
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        run_suite(config, str(out), jobs=1)
    with pytest.raises(OSError):
        cli.export_bundle(str(kept), "json", str(dest))
    assert sorted(p.name for p in out.iterdir()) == ["nm.csv"]
    assert not list(dest.iterdir())


def test_a_missing_config_exits_with_config_code(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert f"cannot read config {path}" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_exits_with_config_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe model.h.kind = heisenberg\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert f"config {path} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("content,what", [
    (None, "cannot read bundle"), ("m,n\n", "is not JSON"),
    ("[]\n", "is not a report bundle"),
    ('{"schema": "voacert-report/1", "results": 5}\n',
     "results is not a list of objects"),
    ('{"schema": "voacert-report/1"}\n', "results is not a list of objects"),
    ('{"schema": "voacert-report/1", "results": [3]}\n',
     "results is not a list of objects")],
    ids=["missing", "text", "list", "int-results", "no-results",
         "int-result"])
def test_an_unreadable_bundle_exits_with_config_code(tmp_path, capsys,
                                                     content, what):
    path = tmp_path / "suite.json"
    if content is not None:
        path.write_text(content)
    assert main(["export", "--bundle", str(path),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert what in err and str(path) in err


def test_a_check_name_naming_a_path_fails_suite_before_any_write(
        tmp_path, capsys):
    # the check's csv used to go to <tmp_path>/x/evil.csv, outside rep/
    evil = tmp_path / "x" / "evil"
    os.makedirs(evil.parent)
    path = tmp_path / "suite.cfg"
    path.write_text("model.h.kind = heisenberg\nmodel.h.N = 4\n"
                    f"check.{evil}.type = norms\ncheck.{evil}.model = h\n"
                    f"check.{evil}.m_max = 1\ncheck.{evil}.n_max = 2\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert f"check name '{evil}' is not" in capsys.readouterr().err
    assert not list(evil.parent.iterdir())
    assert not (tmp_path / "rep").exists()


def test_a_bundle_result_name_naming_a_path_exits_before_any_write(
        tmp_path, capsys):
    cells = {"cells": [{"m": 0, "n": 0, "norm": "1"}]}
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"schema": "voacert-report/1", "results": [
        {"name": "ok", "table": cells},
        {"name": "../escaped", "table": cells}]}))
    dest = tmp_path / "ex"
    os.makedirs(dest)
    assert main(["export", "--bundle", str(path),
                 "--out", str(dest)]) == EXIT_CONFIG
    assert "result name '../escaped' is not" in capsys.readouterr().err
    assert not (tmp_path / "escaped.csv").exists()
    assert not list(dest.iterdir())


CELL = {"m": 0, "n": 0, "lhs": "1", "rhs": "2", "margin": "1"}


# each of these exited 1 with a KeyError, TypeError or AttributeError, and
# the first left a header-only a.csv behind
@pytest.mark.parametrize("results", [
    [{"name": "a", "report": {"cells": [CELL, {"m": 1}]}}],
    [{"name": "a", "table": 3}],
    [{"name": "a", "report": {"cells": 5}}],
    [{"name": "a", "report": [1]}],
    [{"name": "ok", "chain": {"cells": [CELL]}},
     {"name": "a", "table": {"cells": [{"m": 0, "n": 0}]}}]],
    ids=["cell", "table", "cells", "report", "after-a-good-result"])
def test_a_malformed_bundle_exits_before_any_write(tmp_path, capsys,
                                                  results):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"schema": "voacert-report/1",
                                "results": results}))
    dest = tmp_path / "ex"
    os.makedirs(dest)
    assert main(["export", "--bundle", str(path),
                 "--out", str(dest)]) == EXIT_CONFIG
    assert f"{path}: result 'a' has malformed cells" in \
        capsys.readouterr().err
    assert not list(dest.iterdir())


def test_two_results_with_one_name_exit_before_any_write(tmp_path, capsys):
    # the second a.csv used to replace the first, with exit 0
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"schema": "voacert-report/1", "results": [
        {"name": "a", "report": {"cells": [CELL]}},
        {"name": "b", "report": {"cells": [CELL]}},
        {"name": "a", "chain": {"cells": [dict(CELL, m=1)]}}]}))
    dest = tmp_path / "ex"
    os.makedirs(dest)
    assert main(["export", "--bundle", str(path),
                 "--out", str(dest)]) == EXIT_CONFIG
    assert f"{path}: two results are named 'a'" in capsys.readouterr().err
    assert not list(dest.iterdir())


def test_a_bootstrap_window_with_no_cell_does_not_pass(capsys):
    assert main(["certify", "--check", "bootstrap", "--kind", "lattice",
                 "--q", "2", "--N", "6", "--n-max", "0", "--d", "1"]) \
        == EXIT_VIOLATION
    assert '"kind": "inconclusive"' in capsys.readouterr().out


def test_an_unwritable_output_exits_with_config_code(tmp_path, capsys):
    path = tmp_path / "nodir" / "m.json"
    assert main(["build", "--kind", "heisenberg", "--N", "4",
                 "--out", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "file error" in err and str(path) in err


@pytest.mark.parametrize("selector", [
    "basis:1:99", "top:99", "basis:1", "x*top:1", "basis:-1:0", "top:1:0"])
def test_selector_outside_the_basis_is_a_config_error(heis8, selector):
    with pytest.raises(ConfigError, match="bad state selector"):
        resolve_state(heis8, selector)


PAD_STATE = ["--kind", "virasoro", "--c", "1/2", "--N", "8", "--pad", "2",
             "--check", "norms"]


@pytest.mark.parametrize("selector,window", [
    ("basis:10:0", []), ("basis:9:0", ["--m-max", "1", "--n-max", "1"])])
def test_a_basis_state_above_n_is_a_config_error_naming_n(
        capsys, selector, window):
    # degrees 9 and 10 exist only in the internal pad; such a state once
    # passed a small window with all-zero norms
    argv = ["certify"] + PAD_STATE + ["--state", selector] + window
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{selector!r} names degree {selector.split(':')[1]} above " \
           "the truncation N = 8" in err
    assert "(-1, 8)" not in err


@pytest.mark.parametrize("cap", ["9", "100"])
def test_an_axioms_degree_cap_above_n_is_a_config_error_naming_n(capsys,
                                                                 cap):
    # degrees 9 and up exist only in the internal pad, in Verma words
    argv = ["certify", "--kind", "virasoro", "--c", "1/2", "--N", "8",
            "--check", "axioms", "--samples", "1", "--degree-cap", cap]
    assert main(argv) == EXIT_CONFIG
    assert f"degree cap {cap} lies above the truncation N = 8" in \
        capsys.readouterr().err


def test_a_basis_state_above_n_fails_suite_with_config_code(tmp_path,
                                                            capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("model.v.kind = virasoro\nmodel.v.c = 1/2\n"
                   "model.v.N = 8\nmodel.v.pad = 2\n"
                   "check.nm.type = norms\ncheck.nm.model = v\n"
                   "check.nm.state = basis:10:0\ncheck.nm.m_max = 1\n"
                   "check.nm.n_max = 1\n")
    assert main(["suite", "--config", str(cfg),
                 "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "above the truncation N = 8" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--kind", "heisenberg", "--N", "8", "--check", "primary_bound",
     "--state", "nu", "--m-max", "2", "--n-max", "4"],
    ["--kind", "heisenberg", "--N", "8", "--check", "v1_bound",
     "--state", "nu", "--m-max", "2", "--n-max", "4"],
    ["--kind", "heisenberg", "--N", "8", "--check", "bootstrap",
     "--n-max", "4"],
    ["--kind", "heisenberg", "--N", "6", "--check", "norms",
     "--state", "basis:1:99"],
    ["--kind", "heisenberg", "--N", "6", "--check", "norms",
     "--state", "top:99"],
    ["--kind", "heisenberg", "--N", "6", "--check", "norms",
     "--state", "basis:1"],
    ["--kind", "heisenberg", "--N", "6", "--check", "norms",
     "--state", "x*top:1"],
    # windows beyond the truncation, as in the suite test below
    ["--kind", "heisenberg", "--N", "4", "--check", "orbifold",
     "--state", "basis:3:0"],
    ["--kind", "lattice", "--q", "4", "--N", "6", "--check",
     "zero_mode_product", "--state", "top:1", "--with", "basis:1:0",
     "--n-max", "6"],
])
def test_bad_check_input_exits_with_config_code(argv, capsys):
    assert main(["certify"] + argv) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bad_check_input_fails_suite_with_config_code(tmp_path, capsys):
    path = tmp_path / "suite.cfg"
    path.write_text(SUITE + "check.pb.type = primary_bound\n"
                            "check.pb.model = h\ncheck.pb.n_max = 2\n"
                            "check.pb.m_max = 2\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert "'pb'" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "model.h.N = six", "model.h.rank = x", "model.h.pad = x",
    "model.h.corrupt = 0,-1,2,0,0,one", "tolerance = nan",
    "tolerance = -1"])
def test_bad_model_field_or_tolerance_fails_suite_with_config_code(
        tmp_path, capsys, line):
    # the bad line replaces SUITE's own value, since a key may be set once
    key = line.split("=")[0].strip()
    path = tmp_path / "suite.cfg"
    path.write_text(re.sub(rf"^{re.escape(key)} =.*\n", "", SUITE,
                           flags=re.M) + line + "\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    field = key.split(".")[-1]
    assert f"bad value for {field}" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    "kind = lattice\nmodel.l.q = 3\nmodel.l.N = 6",
    "kind = lattice\nmodel.l.q = 0\nmodel.l.N = 6",
    "kind = heisenberg\nmodel.l.N = -1",
    "kind = virasoro\nmodel.l.c = 1/2\nmodel.l.N = 1",
    "kind = heisenberg\nmodel.l.N = 6\nmodel.l.rank = 2\n"
    "model.l.metric = 1,2;2,1",
    "kind = heisenberg\nmodel.l.N = 4\nmodel.l.metric = 2,0;0,2"],
    ids=["q3", "q0", "N-1", "N1", "indefinite", "metric-not-rank"])
def test_invalid_model_spec_fails_suite_with_config_code(tmp_path, capsys,
                                                         model):
    path = tmp_path / "suite.cfg"
    path.write_text(f"model.l.{model}\ncheck.u.type = unitarity\n"
                    "check.u.model = l\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert "model 'l'" in capsys.readouterr().err


# windows that pass SuiteConfig.validate but reach past the truncation
# inside the check: an orbifold average of degree 3 needs N >= 6, and a
# zero-mode bound at n_max = N reads ||a_0|| at degree N + 1
@pytest.mark.parametrize("model, check, what", [
    ("kind = heisenberg\nmodel.x.N = 4",
     "type = orbifold\ncheck.w.state = basis:3:0",
     "orbifold average degree"),
    ("kind = lattice\nmodel.x.q = 4\nmodel.x.N = 6",
     "type = zero_mode_product\ncheck.w.state = top:1\n"
     "check.w.with = basis:1:0\ncheck.w.n_max = 6", "graded norm window")],
    ids=["orbifold", "zero_mode_product"])
def test_window_beyond_the_truncation_fails_suite_with_config_code(
        tmp_path, capsys, model, check, what):
    path = tmp_path / "suite.cfg"
    path.write_text(f"model.x.{model}\ncheck.w.{check}\ncheck.w.model = x\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "check 'w'" in err and what in err


def test_invalid_model_flags_exit_with_config_code(tmp_path, capsys):
    assert main(["build", "--kind", "lattice", "--N", "6", "--q", "3",
                 "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
    assert "command line: lattice" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_export_writes_the_orbifold_chain(tmp_path, capsys):
    config = parse_config(
        "model.h.kind = heisenberg\nmodel.h.N = 6\n"
        "check.orb.type = orbifold\ncheck.orb.model = h\n"
        "check.orb.state = basis:1:0\ncheck.orb.s = 1/2\n"
        "check.orb.n_max = 4\n")
    out = tmp_path / "rep"
    bundle = run_suite(config, str(out), jobs=1)
    dest = tmp_path / "export"
    os.makedirs(dest)
    assert main(["export", "--bundle", str(out / "suite.json"),
                 "--format", "csv", "--out", str(dest)]) == EXIT_OK
    rows = (dest / "orb.csv").read_text().splitlines()
    assert rows[0] == "m,n,lhs,rhs,margin"
    assert len(rows) == 1 + len(bundle["results"][0]["chain"]["cells"]) == 6


def test_readme_check_table_lists_every_registered_type():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().split("### Check types", 1)[1]
    text = text.split("\n#", 1)[0]
    rows = {}
    for line in text.splitlines():
        match = re.match(r"\| `(\w+)` \| ([^|]*)\|", line)
        if match:
            rows[match.group(1)] = tuple(re.findall(r"`(\w+)`",
                                                    match.group(2)))
    assert sorted(rows) == sorted(CHECKS)
    for ctype, fields in rows.items():
        assert fields == CHECKS[ctype].fields, ctype


# -- the one-check verbs share the suite's make_check/run_check path ---------


def _check_flags(verb):
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "verb")
    return {a.dest.split(".", 1)[1]: a for a in sub.choices[verb]._actions
            if a.dest.startswith("check.")}


@pytest.mark.parametrize("verb, fields", [
    ("axioms", CHECKS["axioms"].fields), ("norms", CHECKS["norms"].fields),
    ("certify", tuple(FIELDS))])
def test_one_check_verb_flags_are_its_type_fields(verb, fields):
    flags = _check_flags(verb)
    assert sorted(flags) == sorted(fields)
    assert all(a.default is None for a in flags.values())
    assert flags.get("q") is None or flags["q"].option_strings == \
        ["--damping"]


def test_certify_orbifold_defaults_to_the_suite_state(capsys):
    argv = ["certify", "--kind", "heisenberg", "--N", "6", "--check",
            "orbifold", "--n-max", "4"]
    outs = []
    for extra in ([], ["--state", "basis:1:0"], ["--state", "nu"]):
        outs.append((main(argv + extra),
                     json.loads(capsys.readouterr().out)))
    assert outs[0] == outs[1] == (EXIT_OK, outs[1][1])
    assert outs[2][1]["chain"]["state"] != outs[0][1]["chain"]["state"]


def test_certify_takes_the_suite_n_max_default(capsys):
    assert main(["certify", "--kind", "heisenberg", "--N", "4", "--check",
                 "product_lemma", "--state", "basis:1:0",
                 "--m-max", "1"]) == EXIT_OK
    cells = json.loads(capsys.readouterr().out)["report"]["cells"]
    assert max(c["n"] for c in cells) == 4


def test_certify_flag_the_type_does_not_read_is_a_config_error(capsys):
    assert main(["certify", "--kind", "heisenberg", "--N", "6", "--check",
                 "unitarity", "--samples", "5"]) == EXIT_CONFIG
    assert "'samples' does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("ctype", ["primary_bound", "pair_bound",
                                   "zero_mode_product"])
def test_primary_check_without_state_is_a_config_error(capsys, ctype):
    assert main(["certify", "--kind", "lattice", "--q", "4", "--N", "6",
                 "--check", ctype, "--n-max", "2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"check {ctype!r}" in err and "state must be a primary" in err


@pytest.mark.parametrize("model, field", [
    ("kind = lattice\nmodel.x.q = 2\nmodel.x.N = 6\nmodel.x.c = 1/2", "c"),
    ("kind = heisenberg\nmodel.x.N = 6\nmodel.x.metirc = 2", "metirc"),
    ("kind = virasoro\nmodel.x.c = 1/2\nmodel.x.N = 6\nmodel.x.rank = 1",
     "rank")], ids=["lattice-c", "heisenberg-metirc", "virasoro-rank"])
def test_model_field_the_kind_does_not_read_fails_suite(tmp_path, capsys,
                                                        model, field):
    path = tmp_path / "suite.cfg"
    path.write_text(f"model.x.{model}\ncheck.u.type = unitarity\n"
                    "check.u.model = x\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert f"model 'x': field {field!r} does not apply" in \
        capsys.readouterr().err


def test_model_flag_the_kind_does_not_read_is_a_config_error(capsys):
    assert main(["certify", "--kind", "lattice", "--q", "2", "--N", "6",
                 "--c", "1/2", "--check", "unitarity"]) == EXIT_CONFIG
    assert "command line: field 'c' does not apply" in \
        capsys.readouterr().err


AXIOMS_STDOUT = """{
  "identities": {
    "borcherds": {
      "checked": 10,
      "failures": []
    },
    "commutator": {
      "checked": 10,
      "failures": []
    },
    "skewsymmetry": {
      "checked": 10,
      "failures": []
    },
    "translation": {
      "checked": 10,
      "failures": []
    }
  },
  "model": "heisenberg(rank=1, N=4)",
  "name": "axioms",
  "pass": true,
  "type": "axioms"
}
"""


def test_axioms_and_norms_output_bytes(tmp_path, capsys):
    assert main(["axioms", "--kind", "heisenberg", "--N", "4",
                 "--samples", "10", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == AXIOMS_STDOUT
    path = tmp_path / "norms.csv"
    assert main(["norms", "--kind", "lattice", "--q", "2", "--N", "6",
                 "--state", "top:1", "--m-max", "2", "--n-max", "4",
                 "--csv", str(path)]) == EXIT_OK
    model = build_model(lattice_spec(2, 6))
    table = norm_table(model, resolve_state(model, "top:1"), range(-2, 3),
                       4, owner="top:1")
    cells = [[m, n, format(v, ".17g")] for m, n, v in table.cells()]
    payload = {"owner": "top:1", "model": "lattice(q=2, N=6)",
               "truncation": 6, "tolerance": 1e-9, "failures": [],
               "cells": [dict(zip("mn", c[:2]), norm=c[2]) for c in cells]}
    assert capsys.readouterr().out == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == "".join(
        f"{m},{n},{v}\r\n" for m, n, v in [["m", "n", "norm"]] + cells
    ).encode()


# -- a norms window must fit the truncation ----------------------------------

NORMS_PAST_N = ["--kind", "heisenberg", "--N", "4", "--state", "basis:1:0",
                "--m-max", "1"]


@pytest.mark.parametrize("path", ["certify", "norms", "suite"])
def test_norms_window_past_the_truncation_is_a_config_error(
        tmp_path, capsys, path):
    # n_max defaults to N = 4, so cell (m, n) = (-1, 4) needs degree 5
    if path == "certify":
        argv = ["certify", "--check", "norms"] + NORMS_PAST_N
    elif path == "norms":
        argv = ["norms"] + NORMS_PAST_N
    else:
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("model.h.kind = heisenberg\nmodel.h.N = 4\n"
                       "check.nm.type = norms\ncheck.nm.model = h\n"
                       "check.nm.state = basis:1:0\ncheck.nm.m_max = 1\n"
                       "check.nm.n_max = 4\n")
        argv = ["suite", "--config", str(cfg), "--out", str(tmp_path / "r")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("(-1, 4)" in err) if path != "suite" else ("m_max+n_max" in err)


def test_negative_suite_jobs_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(SUITE)
    assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--jobs", "-3"]) == EXIT_CONFIG
    assert "jobs must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# -- an empty window, sample run or out-of-range pad exits 2 ------------------

VIR6 = ["--kind", "virasoro", "--c", "1/2", "--N", "6"]


@pytest.mark.parametrize("argv", [
    ["certify", *VIR6, "--check", "virasoro_bound", "--m-max", "-1",
     "--n-max", "-1"],
    ["certify", *VIR6, "--check", "product_lemma", "--m-max", "-1",
     "--n-max", "-1"],
    ["certify", *VIR6, "--check", "trace_domination", "--n-max", "-1"],
    ["norms", *VIR6, "--m-max", "-2"],
    ["axioms", "--kind", "heisenberg", "--N", "6", "--samples", "0"],
    ["axioms", "--kind", "heisenberg", "--N", "6", "--samples", "-4"],
    ["certify", "--kind", "lattice", "--q", "2", "--N", "6", "--check",
     "bootstrap", "--n-max", "-1"],
    *(["certify", "--check", "bootstrap", "--kind", "lattice", "--q", "2",
       "--N", "6", "--n-max", "4", "--d", d] for d in ("-1", "0"))],
    ids=["virasoro_bound", "product_lemma", "trace_domination", "norms",
         "samples0", "samples-4", "bootstrap", "bootstrap-d-1",
         "bootstrap-d0"])
def test_an_empty_window_or_sample_run_exits_with_config_code(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert "bad value for" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("m_max", "-1"), ("m_max", "-9"), ("n_max", "-1"), ("samples", "0"),
    ("samples", "-4")])
def test_a_flag_below_its_field_range_exits_with_config_code(
        capsys, field, value):
    ctype = "axioms" if field == "samples" else "virasoro_bound"
    assert main(["certify", *VIR6, "--check", ctype,
                 "--" + field.replace("_", "-"), value]) == EXIT_CONFIG
    assert f"bad value for {field}: '{value}'" in capsys.readouterr().err


def test_a_suite_window_below_zero_exits_with_config_code(tmp_path, capsys):
    # m_max + n_max = -3 used to fit N = 6 and pass on no cells
    path = tmp_path / "suite.cfg"
    path.write_text("model.v.kind = virasoro\nmodel.v.c = 1/2\n"
                    "model.v.N = 6\ncheck.b.type = virasoro_bound\n"
                    "check.b.model = v\ncheck.b.m_max = -9\n"
                    "check.b.n_max = 6\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert "bad value for m_max" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("pad", ["-3", "-1", "9", "100"])
def test_a_pad_outside_zero_to_n_exits_with_config_code(
        tmp_path, capsys, pad):
    vir8 = ["--kind", "virasoro", "--c", "1/2", "--N", "8", "--pad", pad]
    assert main(["certify", *vir8, "--check", "unitarity"]) == EXIT_CONFIG
    assert f"pad {pad} lies outside [0, 8]" in capsys.readouterr().err
    out = tmp_path / "m.json"
    assert main(["build", *vir8, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("pad", ["0", "4"])
def test_a_pad_of_zero_or_n_builds(capsys, pad):
    assert main(["certify", "--kind", "virasoro", "--c", "1/2", "--N", "4",
                 "--pad", pad, "--check", "unitarity"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"]


# -- the orbifold degree is the state's, pad is Virasoro's --------------------


@pytest.mark.parametrize("selector, degree", [
    ("vac", 0), ("basis:1:0", 1), ("nu", 2)])
def test_orbifold_average_is_taken_at_the_state_degree(heis6, selector,
                                                       degree):
    result = run_check(heis6, {"type": "orbifold", "state": selector,
                               "n_max": 2}, 1e-8)
    assert result["average"]["window"]["degree"] == degree


ORBIFOLD = ["certify", "--kind", "heisenberg", "--N", "6", "--check",
            "orbifold", "--n-max", "4"]


# orbifold does not read --degree-cap; each of these passed or found a
# "violation" while the degree was a setting of its own
@pytest.mark.parametrize("extra", [
    ["--state", "basis:1:0", "--degree-cap", "-1"],
    ["--state", "basis:1:0", "--degree-cap", "0"],
    ["--state", "nu", "--degree-cap", "1"]])
def test_certify_orbifold_takes_no_degree(capsys, extra):
    assert main(ORBIFOLD + extra) == EXIT_CONFIG
    assert "does not apply to type 'orbifold'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ORBIFOLD + ["--state", "basis:1:0", "--degree", "1"],
    ["certify", "--kind", "heisenberg", "--N", "6", "--check", "axioms",
     "--degree", "3"]])
def test_flag_prefixes_are_rejected(capsys, argv):
    """--degree is no abbreviation of --degree-cap."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --degree" in capsys.readouterr().err


def test_suite_orbifold_takes_no_degree(tmp_path, capsys):
    path = tmp_path / "suite.cfg"
    path.write_text(SUITE + "check.o.type = orbifold\ncheck.o.model = h\n"
                            "check.o.degree = 1\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert "field 'degree' does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("selector, why", [
    ("0*nu", "state is zero"), ("nu+vac", "not homogeneous")])
def test_orbifold_state_without_one_degree_exits_with_config_code(
        capsys, selector, why):
    assert main(ORBIFOLD + ["--state", selector]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "check 'orbifold'" in err and why in err


# terms that cancel to the zero vector once passed v1_bound, norms,
# product_lemma and trace_domination with all-zero cells, and crashed
# primary_bound with a TypeError
@pytest.mark.parametrize("check, selector", [
    ("v1_bound", "0*basis:1:0"), ("norms", "top:1+-1*top:1"),
    ("product_lemma", "0*nu"), ("trace_domination", "0*basis:1:0"),
    ("primary_bound", "0*top:1")])
def test_a_zero_state_exits_with_config_code(capsys, check, selector):
    argv = ["certify", "--kind", "lattice", "--q", "4", "--N", "6",
            "--check", check, "--state", selector, "--n-max", "2"]
    if check != "trace_domination":
        argv += ["--m-max", "1"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"check {check!r}" in err and "state is zero" in err


# the sign (-1)^{word length} is not an automorphism of Vir_c; sampling it
# reported invariant_charge_conjugation_0: false, and the check exited 1
@pytest.mark.parametrize("c", ["1/2", "1"])
@pytest.mark.parametrize("selector", ["basis:3:0", "basis:4:0", "basis:4:1"])
def test_a_virasoro_orbifold_samples_no_automorphism(capsys, c, selector):
    assert main(["certify", "--check", "orbifold", "--kind", "virasoro",
                 "--c", c, "--N", "8", "--state", selector,
                 "--n-max", "2"]) == EXIT_OK
    notes = json.loads(capsys.readouterr().out)["average"]["notes"]
    assert notes == {"basis_independent": True}


@pytest.mark.parametrize("model, kinds", [
    (["--kind", "heisenberg"], ["charge_conjugation"]),
    (["--kind", "lattice", "--q", "2"], ["charge_conjugation",
                                         "torus_phase"])],
    ids=["heisenberg", "lattice"])
def test_an_orbifold_samples_the_automorphisms_of_its_model(capsys, model,
                                                           kinds):
    assert main(["certify", "--check", "orbifold", "--N", "6",
                 "--n-max", "4"] + model) == EXIT_OK
    notes = json.loads(capsys.readouterr().out)["average"]["notes"]
    assert notes == {"basis_independent": True, **{
        f"invariant_{kind}_{i}": True for i, kind in enumerate(kinds)}}


@pytest.mark.parametrize("model", [
    ["--kind", "heisenberg"], ["--kind", "lattice", "--q", "2"]],
    ids=["heisenberg", "lattice"])
@pytest.mark.parametrize("pad", ["0", "3"])
def test_a_pad_on_another_kind_than_virasoro_exits_with_config_code(
        capsys, model, pad):
    assert main(["certify", *model, "--N", "6", "--pad", pad,
                 "--check", "unitarity"]) == EXIT_CONFIG
    assert "command line: field 'pad' does not apply" in \
        capsys.readouterr().err


# a window default counted as 0 passed the pre-flight, and the check failed
# only after the model was built (41 s for virasoro(1, 14))
@pytest.mark.parametrize("window, size", [
    ("check.b.n_max = 8", 12), ("check.b.m_max = 3", 9)])
def test_suite_window_defaults_are_checked_before_any_build(
        tmp_path, capsys, monkeypatch, window, size):
    def no_build(*args, **kwargs):
        raise AssertionError("built a model for a window past N")

    monkeypatch.setattr(cli, "build_model", no_build)
    path = tmp_path / "suite.cfg"
    path.write_text("model.v.kind = virasoro\nmodel.v.c = 1/2\n"
                    "model.v.N = 8\ncheck.b.type = virasoro_bound\n"
                    f"check.b.model = v\n{window}\n")
    assert main(["suite", "--config", str(path),
                 "--out", str(tmp_path / "rep")]) == EXIT_CONFIG
    assert f"window m_max+n_max = {size} exceeds truncation N=8" in \
        capsys.readouterr().err


def test_readme_model_table_lists_the_fields_of_every_kind():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().split("## Models", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in text.splitlines():
        match = re.match(r"\| `(\w+)` +\| ([^|]*)\|", line)
        if match:
            rows[match.group(1)] = tuple(re.findall(r"`(\w+)`",
                                                    match.group(2)))
    assert rows == KIND_FIELDS
    common = re.search(r"every kind reads ([^.]*)\.", text).group(1)
    own = {f for fields in KIND_FIELDS.values() for f in fields}
    assert set(re.findall(r"`(\w+)`", common)) == set(MODEL_FIELDS) - own
