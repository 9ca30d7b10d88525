"""The three benchmark workloads and their output checks.

Each workload runs in rounds.  A round builds its models from scratch
(``setup``), then runs its operations closed-loop, one at a time, and checks
every output (``ops``).  Inputs depend only on the seed, so every round of a
run repeats the same ops in the same order.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from pathlib import Path

from voacert import bound_certifier, cli, config, graded_fock, mode_engine
from voacert.errors import TruncationError
from voacert.graded_fock import (BasisState, StateVector, enumerate_basis,
                                 heisenberg_spec, lattice_spec,
                                 virasoro_spec)

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# Calls into voacert go through module attributes (graded_fock.build_model,
# not a name imported here), so the traced run's wrappers see them.

# States selected by label, never by basis position: on a lattice model
# basis.states(1)[0] is the charge -1 top, not the current.
CURRENT = BasisState(0, ((0, -1),))
E_PLUS = BasisState(1, ())
E_MINUS = BasisState(-1, ())


class Outcome:
    """Op times, counts, an output digest and the speed probes of a round."""

    def __init__(self):
        self.meter = SpeedMeter()
        self.op_windows = []  # (start, end) of every op
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digest = hashlib.sha256()

    def tick(self):
        """Call before each op: probes the machine's speed now and then."""
        self.meter.tick()

    def op(self, window, ok: bool, text: str):
        self.op_windows.append(window)
        self.verdict(ok, text)

    def verdict(self, ok: bool, text: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(text[:300])
        self._digest.update(text.encode() + b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def latencies(self):
        """Op latencies in seconds at the reference speed."""
        return [self.meter.scaled(*window) for window in self.op_windows]


def _timed(fn, *args):
    """((start, end), result, error) of one call; exceptions are errors."""
    start = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # every raised exception is a failed op
        out, err = None, exc
    return (start, time.perf_counter()), out, err


# -- axioms ------------------------------------------------------------------

IDENTITIES = ("borcherds", "skewsymmetry", "commutator", "translation")
INDEX_SPAN = 3


def _draw(model, identity: str, rng: random.Random, pool):
    """One candidate tuple, drawn as sample_residuals draws it.

    Returns None when the window filter of sample_residuals rejects it.
    """
    span = INDEX_SPAN
    if identity == "borcherds":
        a, b, c = (rng.choice(pool) for _ in range(3))
        m, n, k = (rng.randint(-span, span) for _ in range(3))
        if mode_engine.borcherds_required_truncation(
                model, a, b, c, m, n, k) > model.N:
            return None
        return (a, b, c, m, n, k)
    if identity == "skewsymmetry":
        a, b = rng.choice(pool), rng.choice(pool)
        n = rng.randint(-span, span)
        da, db = model.basis.degree_of(a), model.basis.degree_of(b)
        if max(da, db, da + db - n - 1) > model.N:
            return None
        return (a, b, n)
    if identity == "commutator":
        a, b = rng.choice(pool), rng.choice(pool)
        p, q = (rng.randint(-span, span) for _ in range(2))
        if model.basis.degree_of(a) + model.basis.degree_of(b) - 1 \
                > model.N:
            return None
        return (a, p, b, q)
    a = rng.choice(pool)
    return (a, rng.randint(-span, span))


def check_identity(model, identity: str, rng: random.Random, count: int,
                   out: Outcome):
    """Run count accepted tuples of one identity, each as one timed op.

    A commutator or translation call that raises TruncationError is a
    rejected draw, as in sample_residuals; any other exception, and any
    residual that is not exactly zero, is a failed op.
    """
    fn = getattr(mode_engine, f"{identity}_residual")
    cap = max(2, model.N // 2)
    pool = [st for d in range(cap + 1) for st in model.basis.states(d)]
    checked = attempts = 0
    while checked < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError(f"{identity}: window filter rejects too often")
        args = _draw(model, identity, rng, pool)
        if args is None:
            continue
        out.tick()
        window, res, err = _timed(fn, model, *args)
        if isinstance(err, TruncationError) and \
                identity in ("commutator", "translation"):
            continue
        checked += 1
        if err is not None:
            out.op(window, False, f"{identity}{args!r} raised {err!r}")
        else:
            out.op(window, res.is_zero,
                   f"{identity}{args!r} residual {res.max_abs}")


def corrupted_model_flagged() -> bool:
    """Push the mutation-test model through the axioms checker."""
    bad = graded_fock.build_model(heisenberg_spec(1, 6),
                                  corrupt=(0, -1, 2, 0, 0, 1))
    out = Outcome()
    check_identity(bad, "commutator", random.Random("self-test"), 50, out)
    return out.failed > 0


class Workload:
    """One workload: ``setup(seed)`` builds a round's plan, ``ops`` runs and
    checks every op of the round, ``cleanup`` releases what setup made."""

    name = ""
    # Rounds repeat until the run's seconds are used up, at least this many:
    # two give every op a second repetition even on a slow machine.
    min_rounds = 2
    setup_samples = 0  # extra set-ups per round, to sample set-up time

    def cleanup(self, plan):
        pass


class Axioms(Workload):
    """Criterion-1 residual sampling on four cold models."""

    name = "axioms"
    tuples_per_identity = 160
    min_rounds = 1
    setup_samples = 2
    specs = (heisenberg_spec(1, 8), virasoro_spec("1/2", 8),
             virasoro_spec(1, 8), lattice_spec(2, 6))

    def setup(self, seed: int):
        return [graded_fock.build_model(spec) for spec in self.specs]

    def ops(self, models, seed: int, out: Outcome):
        for mi, model in enumerate(models):
            for identity in IDENTITIES:
                rng = random.Random(f"axioms:{seed}:{mi}:{identity}")
                check_identity(model, identity, rng,
                               self.tuples_per_identity, out)


# -- certify -----------------------------------------------------------------


class Certify(Workload):
    """Criterion-4 certifiers on cold models, at reduced windows."""

    name = "certify"
    models = {
        "vir_half": (virasoro_spec("1/2", 12), 1),
        "vir_one": (virasoro_spec(1, 12), 1),
        "heis_v1": (heisenberg_spec(1, 10), None),
        "lat_v1": (lattice_spec(2, 10), None),
        "heis8": (heisenberg_spec(1, 8), None),
        "ising8": (virasoro_spec("1/2", 8), None),
        "lat2_8": (lattice_spec(2, 8), None),
        "lat4": (lattice_spec(4, 10), None),
    }
    virasoro_window = (4, 8)
    v1_window = (4, 6)
    product_window = (3, 6)
    primary_window = (3, 6)

    def setup(self, seed: int):
        return {key: graded_fock.build_model(spec, pad=pad)
                for key, (spec, pad) in self.models.items()}

    def tasks(self, models):
        """(label, certifier, model, state, (m_max, n_max)) of every call."""
        out = []
        for key in ("vir_half", "vir_one"):
            out.append((f"virasoro_bound {key} nu",
                        "certify_virasoro_bound", models[key],
                        models[key].nu, self.virasoro_window))
        ep, em = StateVector.basis(E_PLUS), StateVector.basis(E_MINUS)
        v1_states = [("heis_v1", "current", StateVector.basis(CURRENT)),
                     ("lat_v1", "current", StateVector.basis(CURRENT)),
                     ("lat_v1", "e+", ep), ("lat_v1", "e-", em),
                     ("lat_v1", "e+ + e-", ep + em)]
        for key, label, state in v1_states:
            out.append((f"v1_bound {key} {label}", "certify_v1_bound",
                        models[key], state, self.v1_window))
        for key in ("heis8", "ising8", "lat2_8"):
            for deg in (1, 2):
                for st in models[key].basis.states(deg):
                    out.append((f"product_lemma {key} {st!r}",
                                "certify_product_lemma", models[key], st,
                                self.product_window))
        out.append(("primary_bound lat4 e+", "certify_primary_bound",
                    models["lat4"], E_PLUS, self.primary_window))
        return out

    def ops(self, models, seed: int, out: Outcome):
        # The seed orders the models; calls on one model keep their order,
        # so the same call pays for filling that model's block cache.
        by_model = {}
        for task in self.tasks(models):
            by_model.setdefault(id(task[2]), []).append(task)
        groups = list(by_model.values())
        random.Random(f"certify:{seed}").shuffle(groups)
        tasks = [task for group in groups for task in group]
        verdicts = {}
        for label, certifier, model, state, bounds in tasks:
            fn = getattr(bound_certifier, certifier)
            out.tick()
            window, report, err = _timed(fn, model, state, *bounds)
            if err is not None:
                ok, text = False, f"{label} raised {err!r}"
            else:
                ok = report.passed and (
                    certifier != "certify_product_lemma"
                    or report.notes.get("vector_level_exact") is True)
                text = f"{label} " + json.dumps(report.to_dict(),
                                                sort_keys=True)
            out.op_windows.append(window)
            verdicts[label] = (ok, text)
        # digest in a fixed order, so it does not depend on the shuffle
        for label in sorted(verdicts):
            out.verdict(*verdicts[label])


# -- suite -------------------------------------------------------------------

# Seed-chosen parameters of the generated suite config:
# (trace-domination damping q, orbifold exponent s).
SUITE_VARIANTS = (("1/4", "1/2"), ("1/3", "1"), ("1/2", "1/2"),
                  ("2/3", "1"), ("1/5", "3/2"), ("3/4", "1/2"),
                  ("2/5", "1"), ("1/2", "2"))
REFERENCE = HERE / "reference.json"


def _selector(spec, state: BasisState) -> str:
    """basis:<degree>:<pos> selector for a labelled state of a model."""
    basis = enumerate_basis(spec)
    deg, pos = basis.index[state]
    return f"basis:{deg}:{pos}"


def suite_config_text(variant: int, cache_dir: str) -> str:
    q, s = SUITE_VARIANTS[variant]
    lat, heis = lattice_spec(2, 12), heisenberg_spec(1, 12)
    lat_cur, heis_cur = _selector(lat, CURRENT), _selector(heis, CURRENT)
    return "\n".join([
        "model.lat.kind = lattice", "model.lat.q = 2", "model.lat.N = 12",
        "model.heis.kind = heisenberg", "model.heis.N = 12",
        "model.vir.kind = virasoro", "model.vir.c = 1/2",
        "model.vir.N = 14", "model.vir.pad = 1",
        # lattice: the current and e+ over overlapping windows
        "check.l1_unit.type = unitarity", "check.l1_unit.model = lat",
        "check.l2_norms.type = norms", "check.l2_norms.model = lat",
        "check.l2_norms.state = top:1", "check.l2_norms.m_max = 2",
        "check.l2_norms.n_max = 6",
        "check.l3_v1.type = v1_bound", "check.l3_v1.model = lat",
        "check.l3_v1.state = top:1", "check.l3_v1.m_max = 3",
        "check.l3_v1.n_max = 6",
        "check.l4_v1cur.type = v1_bound", "check.l4_v1cur.model = lat",
        f"check.l4_v1cur.state = {lat_cur}", "check.l4_v1cur.m_max = 3",
        "check.l4_v1cur.n_max = 6",
        "check.l5_orb.type = orbifold", "check.l5_orb.model = lat",
        f"check.l5_orb.state = {lat_cur}", f"check.l5_orb.s = {s}",
        "check.l5_orb.n_max = 6",
        # heisenberg: the current everywhere
        "check.h1_norms.type = norms", "check.h1_norms.model = heis",
        f"check.h1_norms.state = {heis_cur}", "check.h1_norms.m_max = 3",
        "check.h1_norms.n_max = 8",
        "check.h2_prod.type = product_lemma", "check.h2_prod.model = heis",
        f"check.h2_prod.state = {heis_cur}", "check.h2_prod.m_max = 3",
        "check.h2_prod.n_max = 8",
        "check.h3_trace.type = trace_domination",
        "check.h3_trace.model = heis",
        f"check.h3_trace.state = {heis_cur}", f"check.h3_trace.q = {q}",
        "check.h3_trace.n_max = 10",
        "check.h4_orb.type = orbifold", "check.h4_orb.model = heis",
        f"check.h4_orb.state = {heis_cur}", f"check.h4_orb.s = {s}",
        "check.h4_orb.n_max = 10",
        # virasoro: the conformal vector
        "check.v1_unit.type = unitarity", "check.v1_unit.model = vir",
        "check.v2_vir.type = virasoro_bound", "check.v2_vir.model = vir",
        "check.v2_vir.state = nu", "check.v2_vir.m_max = 4",
        "check.v2_vir.n_max = 10",
        "check.v3_norms.type = norms", "check.v3_norms.model = vir",
        "check.v3_norms.state = nu", "check.v3_norms.m_max = 2",
        "check.v3_norms.n_max = 8",
        "check.v4_prod.type = product_lemma", "check.v4_prod.model = vir",
        "check.v4_prod.state = nu", "check.v4_prod.m_max = 2",
        "check.v4_prod.n_max = 8",
        f"cache_dir = {cache_dir}",
        "",
    ])


def reference_digests() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["suite_json_sha256"]


class Suite(Workload):
    """A generated suite through cli.run_suite, run twice on one cache."""

    name = "suite"
    setup_samples = 8
    config_text = staticmethod(suite_config_text)

    def setup(self, seed: int):
        OUT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="suite-", dir=OUT))
        variant = seed % len(SUITE_VARIANTS)
        path = work / "suite.cfg"
        path.write_text(self.config_text(variant, str(work / "cache")))
        return work, variant, config.load_config(str(path))

    def ops(self, plan, seed: int, out: Outcome):
        work, variant, cfg = plan
        traced_check = cli.run_check

        def timed_check(model, check, *args):
            out.tick()
            window, result, err = _timed(traced_check, model, check, *args)
            if err is not None:
                out.op(window, False, f"{check['name']} raised {err!r}")
                raise err
            ok = result["pass"] is True and (
                check["type"] != "product_lemma" or
                result["report"]["notes"].get("vector_level_exact") is True)
            out.op(window, ok, f"{check['name']} pass={result['pass']}")
            return result

        cli.run_check = timed_check
        blobs = []
        try:
            for tag in ("write-cache", "read-cache"):
                try:
                    cli.run_suite(cfg, str(work / tag), jobs=1)
                    blobs.append((work / tag / "suite.json").read_bytes())
                except Exception as exc:
                    out.verdict(False, f"run_suite {tag} raised {exc!r}")
                    blobs.append(b"")
        finally:
            cli.run_check = traced_check
        digest = hashlib.sha256(blobs[0]).hexdigest()
        out.verdict(blobs[0] == blobs[1],
                    f"suite.json identical across passes: {digest}")
        want = reference_digests().get(str(variant))
        out.verdict(digest == want,
                    f"suite.json variant {variant} digest {digest} "
                    f"(reference {want})")

    def cleanup(self, plan):
        shutil.rmtree(plan[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Axioms(), Certify(), Suite())}
