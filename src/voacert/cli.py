"""Command-line surface.

Verbs: build, axioms, norms, certify, suite, export.  Exit codes:
0 success, 1 violation found, 2 bad configuration, usage or file path,
3 internal numerical failure (non-positive Gram and friends).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
from collections import namedtuple

import numpy as np

from .bound_certifier import (bootstrap_analyze, certify_orbifold_chain,
                              certify_pair_bound, certify_primary_bound,
                              certify_product_lemma, certify_v1_bound,
                              certify_virasoro_bound,
                              certify_zero_mode_product, fit_recursion,
                              measure_sector_growth, orbifold_average,
                              trace_domination_check)
from .config import (KIND_FIELDS, MODEL_FIELDS, NAME, SuiteConfig,
                     load_config, make_check, spec_from_fields)
from .errors import (ConfigError, ModelBugError, TruncationError,
                     VoacertError)
from .graded_fock import (Automorphism, BasisState, Model, ModelSpec,
                          StateVector, build_model)
from .mode_engine import sample_residuals
from .norm_lab import norm_table, write_norm_csv
from .scalars import Q, rational
from .serialize import ModelCache, save_model, write_atomic
from .unitary_structure import family_of

REPORT_SCHEMA = "voacert-report/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# state selectors


def resolve_state(model: Model, selector: str) -> StateVector:
    """Parse a state selector.

    Tokens: `nu`, `vac`, `top:<sector>`, `basis:<degree>:<pos>`, joined by
    `+` with an optional rational prefix `c*`.  A malformed token, or one
    naming no state of the model's basis up to degree N, raises ConfigError;
    terms that cancel to the zero vector raise ValueError.
    """
    total = StateVector()
    for token in selector.split("+"):
        token = token.strip()
        pre, _, name = token.rpartition("*")
        kind, *index = name.split(":")
        try:
            coeff = rational(pre) if pre else Q(1)
            index = [int(x) for x in index]
        except (ValueError, ZeroDivisionError):
            kind = None
        state = None
        if kind == "nu" and not index:
            total.add(model.nu, coeff)
            continue
        if kind == "vac" and not index:
            state = model.vacuum
        elif kind == "top" and len(index) == 1:
            state = BasisState(index[0], ())
        elif kind == "basis" and len(index) == 2 and index[0] > model.N:
            raise ConfigError(f"state selector {token!r} names degree "
                              f"{index[0]} above the truncation N = {model.N}")
        elif kind == "basis" and len(index) == 2 and \
                0 <= index[1] < model.dim(index[0]):
            state = model.basis.states(index[0])[index[1]]
        if state not in model.basis.index:
            raise ConfigError(f"bad state selector {token!r}")
        total.add_term(state, coeff)
    if total.is_zero():
        raise ValueError(f"state is zero: {selector!r}")
    return total


def _model_from_args(args) -> Model:
    fields = {k: getattr(args, k, None) for k in MODEL_FIELDS}
    spec, pad, _ = spec_from_fields("command line", {
        k: v for k, v in fields.items() if v is not None})
    return build_model(spec, pad=pad)


def _add_model_flags(parser):
    """The model fields, parsed by spec_from_fields; no defaults here."""
    parser.add_argument("--kind", required=True, choices=sorted(KIND_FIELDS))
    parser.add_argument("--N", required=True)
    parser.add_argument("--c", help="central charge (virasoro), e.g. 1/2")
    parser.add_argument("--q", help="lattice square (even)")
    parser.add_argument("--rank", help="heisenberg rank (default 1)")
    parser.add_argument("--pad", help="virasoro working margin above N")


def _add_check_flags(parser, fields):
    """Model flags, --json and a flag per check field, parsed by
    make_check; no defaults here."""
    _add_model_flags(parser)
    for name in fields:
        flag = "--damping" if name == "q" else "--" + name.replace("_", "-")
        parser.add_argument(flag, dest="check." + name)
    parser.add_argument("--json", dest="json_out")


# ---------------------------------------------------------------------------
# check types (shared by `certify` and `suite`)


def _at_least(low: int):
    """Parser of an int that is at least low."""

    def parse(value):
        if int(value) < low:
            raise ValueError(value)
        return int(value)

    return parse


# Every field a check may read, with its parser.  A one-check verb has a
# flag of the same name for each field of its type (`certify`: every field),
# `--m-max` for m_max and `--damping` for q.  A window bound is at least 0,
# a sample count and step d at least 1: no check passes on an empty window.
FIELDS = {
    "state": str, "with": str, "m_max": _at_least(0), "n_max": _at_least(0),
    "samples": _at_least(1),
    "seed": int, "degree_cap": int, "p": int, "d": _at_least(1),
    "q": rational, "s": rational,
}

# fields: the FIELDS its runner reads; window: the fields whose sum may not
# exceed the model's N; run(model, check, tolerance, output_dir) returns the
# type's own result keys plus "pass".
CheckType = namedtuple("CheckType", "fields window run")


def _run_axioms(model, check, tol, output_dir):
    identities = {}
    for ident in ("borcherds", "skewsymmetry", "commutator", "translation"):
        count, failures = sample_residuals(
            model, ident, check.get("samples", 100),
            seed=check.get("seed", 0), degree_cap=check.get("degree_cap"))
        identities[ident] = {"checked": count,
                             "failures": [repr(t) for t, _ in failures]}
    return {"identities": identities,
            "pass": not any(v["failures"] for v in identities.values())}


def _run_unitarity(model, check, tol, output_dir):
    fam = family_of(model)
    pd = {str(d): fam.positive_definite(d) for d in range(model.N + 1)}
    return {"positive_definite": pd, "pass": all(pd.values())}


def _run_norms(model, check, tol, output_dir):
    selector, m_max = check.get("state", "nu"), check["m_max"]
    table = norm_table(model, resolve_state(model, selector),
                       range(-m_max, m_max + 1), check["n_max"],
                       owner=selector)
    if table.failures:
        (m, n), reason = min(table.failures.items())
        raise ValueError(f"cell (m, n) = ({m}, {n}): {reason}")
    out = {"table": table.to_dict(), "pass": True}
    if output_dir:
        path = os.path.join(output_dir, f"{check['name']}.csv")
        write_norm_csv(out["table"], path)
        out["csv"] = os.path.basename(path)
    return out


def _run_bootstrap(model, check, tol, output_dir):
    kseq = measure_sector_growth(model, check["n_max"])
    d = check.get("d", 1)
    d_const, s = fit_recursion(kseq, d)
    verdict = bootstrap_analyze(kseq, d_const, s, d, tol=tol)
    return {"K": [format(v, ".12g") for v in kseq], "D": d_const, "s": s,
            "d": d, "verdict": verdict.to_dict(),
            "pass": verdict.kind == "certified"}


def _run_orbifold(model, check, tol, output_dir):
    """The average x over V_d, d the state's degree, and the chain step,
    which holds only for a state of V_d."""
    state = resolve_state(model, check.get("state", "basis:1:0"))
    degree = model.degree_of(state)
    auts = [Automorphism(model, kind) for kind in model.automorphisms]
    x, avg_report = orbifold_average(model, degree, auts)
    chain = certify_orbifold_chain(model, state, x,
                                   float(check.get("s", 1)),
                                   check["n_max"], tol=tol)
    return {"average": avg_report.to_dict(), "chain": chain.to_dict(),
            "pass": avg_report.passed and chain.passed}


def _report(report) -> dict:
    return {"report": report.to_dict(), "pass": report.passed}


def _state(model, check, field="state"):
    return resolve_state(model, check.get(field, "nu"))


def _primary(model, check):
    """The check's state, with no default: nu is never primary."""
    if "state" not in check:
        raise ValueError("state must be a primary and has no default")
    return resolve_state(model, check["state"])


# The runners name the certifiers as module globals, resolved per call, so
# a wrapper installed on this module's names sees every call.
_BOUND = ("state", "m_max", "n_max")
CHECKS = {
    "axioms": CheckType(("samples", "seed", "degree_cap"), (), _run_axioms),
    "unitarity": CheckType((), (), _run_unitarity),
    "norms": CheckType(_BOUND, ("m_max", "n_max"), _run_norms),
    "bootstrap": CheckType(("n_max", "d"), ("n_max",), _run_bootstrap),
    "orbifold": CheckType(("state", "s", "n_max"), ("n_max",),
                          _run_orbifold),
    "trace_domination": CheckType(
        ("state", "q", "n_max"), ("n_max",),
        lambda model, c, tol, _: _report(trace_domination_check(
            model, _state(model, c), c.get("q", Q(1, 2)), c["n_max"],
            tol=tol))),
    "virasoro_bound": CheckType(
        _BOUND, ("m_max", "n_max"),
        lambda model, c, tol, _: _report(certify_virasoro_bound(
            model, _state(model, c), c["m_max"], c["n_max"], tol=tol))),
    "v1_bound": CheckType(
        _BOUND, ("m_max", "n_max"),
        lambda model, c, tol, _: _report(certify_v1_bound(
            model, _state(model, c), c["m_max"], c["n_max"], tol=tol))),
    "primary_bound": CheckType(
        _BOUND, ("m_max", "n_max"),
        lambda model, c, tol, _: _report(certify_primary_bound(
            model, _primary(model, c), c["m_max"], c["n_max"], tol=tol))),
    "product_lemma": CheckType(
        _BOUND, ("n_max",),
        lambda model, c, tol, _: _report(certify_product_lemma(
            model, _state(model, c), c["m_max"], c["n_max"], tol=tol))),
    "pair_bound": CheckType(
        _BOUND + ("with",), ("n_max",),
        lambda model, c, tol, _: _report(certify_pair_bound(
            model, _primary(model, c), _state(model, c, "with"), c["m_max"],
            c["n_max"], tol=tol))),
    "zero_mode_product": CheckType(
        ("state", "with", "p", "n_max"), ("n_max",),
        lambda model, c, tol, _: _report(certify_zero_mode_product(
            model, _state(model, c, "with"), c.get("p", 0), _primary(model, c),
            c["n_max"], tol=tol))),
}


def window_defaults(check: dict, n: int) -> dict:
    """The check with m_max 4 and n_max min(6, n) unless it sets them, n the
    model's N; run_check and the suite pre-flight both read it."""
    return {"m_max": 4, "n_max": min(6, n), **check}


def run_check(model: Model, check: dict, tolerance: float,
              output_dir: str = None) -> dict:
    """Run one check; a ValueError of its runner, or a window beyond the
    model's truncation, becomes a ConfigError."""
    ctype = check["type"]
    if ctype not in CHECKS:
        raise ConfigError(f"unknown check type {ctype!r}")
    name = check.get("name", ctype)
    check = {**window_defaults(check, model.N), "name": name}
    out = {"name": name, "type": ctype, "model": model.spec.describe()}
    try:
        out.update(CHECKS[ctype].run(model, check, tolerance, output_dir))
    except np.linalg.LinAlgError:
        raise
    except (ValueError, TruncationError) as exc:
        raise ConfigError(f"check {name!r} ({ctype}): {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# suite execution


def _suite_model(memo: dict, spec: ModelSpec, pad, corrupt, cache_dir):
    """A suite's model, built once per memo; read from and saved to
    cache_dir when one is set, unless it is corrupted on purpose."""
    key = (spec, pad, corrupt)
    model = memo.get(key)
    if model is None:
        if cache_dir and corrupt is None:
            model = ModelCache(cache_dir).get_or_build(spec, pad)
        else:
            model = build_model(spec, corrupt=corrupt, pad=pad)
        memo[key] = model
    return model


def _task(spec, pad, corrupt, cache_dir, check, tolerance, output_dir):
    model = _suite_model(_task_models, spec, pad, corrupt, cache_dir)
    return run_check(model, check, tolerance, output_dir)


_task_models = {}  # a pool worker's models


def run_suite(config: SuiteConfig, output_dir: str = None,
              jobs: int = None) -> dict:
    jobs = jobs if jobs is not None else config.jobs
    if jobs < 0:
        raise ConfigError("jobs must be nonnegative")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(config.checks) or 1))
    output_dir = output_dir or config.output_dir
    os.makedirs(output_dir, exist_ok=True)

    def entry(check):
        mname = check["model"]
        return (config.models[mname], config.pads.get(mname),
                config.corrupts.get(mname), config.cache_dir)

    if jobs == 1:
        models = {}
        results = [run_check(_suite_model(models, *entry(check)), check,
                             config.tolerance, output_dir)
                   for check in config.checks]
    else:
        with concurrent.futures.ProcessPoolExecutor(jobs) as pool:
            futures = [pool.submit(_task, *entry(check), check,
                                   config.tolerance, output_dir)
                       for check in config.checks]
            # merge strictly in config order, not completion order
            results = [f.result() for f in futures]

    bundle = {
        "schema": REPORT_SCHEMA,
        "tolerance": config.tolerance,
        "results": results,
        "pass": all(r["pass"] for r in results),
    }
    _write_bundle(os.path.join(output_dir, "suite.json"), bundle)
    return bundle


def _write_bundle(path: str, bundle: dict):
    write_atomic(path, json.dumps(bundle, indent=2, sort_keys=True) + "\n")


def export_bundle(bundle_path: str, fmt: str, out_dir: str):
    try:
        with open(bundle_path) as fh:
            bundle = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read bundle {bundle_path}: "
                          f"{exc.strerror}") from None
    except ValueError:  # not JSON, or not UTF-8
        raise ConfigError(f"{bundle_path} is not JSON") from None
    if not isinstance(bundle, dict) or bundle.get("schema") != REPORT_SCHEMA:
        raise ConfigError(f"{bundle_path} is not a report bundle")
    results = bundle.get("results")
    if not isinstance(results, list) or not all(
            isinstance(result, dict) for result in results):
        raise ConfigError(f"{bundle_path}: results is not a list of objects")
    if fmt == "json":
        path = os.path.join(out_dir, "bundle.json")
        _write_bundle(path, bundle)
        return [path]
    tables = []  # every name and cell is checked before any write
    for result in results:
        name = result.get("name")
        if not (isinstance(name, str) and NAME.fullmatch(name)):
            raise ConfigError(f"{bundle_path}: result name {name!r} is not "
                              "[A-Za-z0-9_-]+")
        if any(name == seen for seen, _ in tables):
            raise ConfigError(f"{bundle_path}: two results are named "
                              f"{name!r}, so both would write {name}.csv")
        cells = _csv_rows(result)
        if cells is None:
            raise ConfigError(f"{bundle_path}: result {name!r} has malformed "
                              "cells")
        tables.append((name, cells))
    written = []
    for name, cells in tables:
        if not cells:
            continue
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write("m,n,lhs,rhs,margin\n")
            fh.writelines(",".join(map(str, cell)) + "\n" for cell in cells)
        written.append(path)
    if not written:
        raise ConfigError("empty table: nothing to export")
    return written


def _csv_rows(result: dict):
    """The m,n,lhs,rhs,margin rows of a result's report, chain or table
    cells (a table's norm is lhs), or None if they are malformed."""
    fields, pad = ("m", "n", "lhs", "rhs", "margin"), ()
    report = result.get("report") or result.get("chain") or {}
    if "table" in result:
        report, fields, pad = result["table"], ("m", "n", "norm"), ("", "")
    cells = report.get("cells", []) if isinstance(report, dict) else None
    if not isinstance(cells, list) or not all(
            isinstance(cell, dict) and all(isinstance(
                cell.get(f), (str, int, float)) for f in fields)
            for cell in cells):
        return None
    return [tuple(cell[f] for f in fields) + pad for cell in cells]


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="voacert", allow_abbrev=False,
        description="exact truncated vertex-algebra models and "
                    "energy-bound certification")
    sub = parser.add_subparsers(dest="verb", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("build", help="build a model and save its container")
    _add_model_flags(p)
    p.add_argument("--out", default="model.json")

    p = add("axioms", help="randomized exact identity checks")
    _add_check_flags(p, CHECKS["axioms"].fields)
    p = add("norms", help="graded norm table for one state")
    _add_check_flags(p, CHECKS["norms"].fields)
    p.add_argument("--csv")
    p = add("certify", help="run one check of any type")
    _add_check_flags(p, FIELDS)
    p.add_argument("--check", required=True)

    p = add("suite", help="run a configured certification suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=None)

    p = add("export", help="re-emit a report bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out", default=".")
    return parser


def _emit(payload: dict, json_out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "build":
            model = _model_from_args(args)
            save_model(model, args.out)
            print(f"built {model.spec.describe()} -> {args.out}")
            return EXIT_OK
        if args.verb in ("axioms", "norms", "certify"):
            ctype = getattr(args, "check", args.verb)
            check = make_check(ctype, ctype, {
                k[len("check."):]: v for k, v in vars(args).items()
                if k.startswith("check.") and v is not None})
            result = run_check(_model_from_args(args), check, 1e-8)
            if args.verb == "norms" and args.csv:
                write_norm_csv(result["table"], args.csv)
            _emit(result["table"] if args.verb == "norms" else result,
                  args.json_out)
            return EXIT_OK if result["pass"] else EXIT_VIOLATION
        if args.verb == "suite":
            config = load_config(args.config)
            out_dir = args.out or config.output_dir
            bundle = run_suite(config, out_dir, args.jobs)
            print(f"suite: {'pass' if bundle['pass'] else 'FAIL'} "
                  f"({len(bundle['results'])} checks) -> "
                  f"{os.path.join(out_dir, 'suite.json')}")
            return EXIT_OK if bundle["pass"] else EXIT_VIOLATION
        if args.verb == "export":
            files = export_bundle(args.bundle, args.format, args.out)
            for path in files:
                print(path)
            return EXIT_OK
        raise ConfigError(f"unknown verb {args.verb!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelBugError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # an output path the user named
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VoacertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
