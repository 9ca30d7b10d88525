"""Model persistence and the content-addressed build cache.

The on-disk container (schema voacert-model/4) records the model
specification as its config fields (config.spec_fields: kind, N and each
field the kind reads that is off its default, as strings, a corrupt as
gid,m,src,row,col,delta), graded dimensions, basis labels, the conformal
state, and every materialized generator block (a corrupted one as
corrupted) as [rows, cols, [[i, j, "p/q"], ...]] over its nonzero
entries.  voacert-model/3 stored a spec without the Virasoro pad and
recovered it from n_internal, so a container of an older schema is
rebuilt, not compared.  Loading parses the stored spec with
config.spec_from_fields (a pad outside [0, N] is rejected before anything
is built), rebuilds the model from it (the construction is deterministic),
materializes the stored blocks, and requires the rebuild to serialize to
exactly the stored fields; rationals are canonical "p/q" strings, so
comparing text is exact.  load_model returns the rebuilt model, never
stored data, so a cache hit can never drift from a cold build.
"""

from __future__ import annotations

import hashlib
import json
import os

from .config import spec_fields, spec_from_fields
from .errors import ConfigError, ModelBugError, SpecError
from .graded_fock import BasisState, Model, ModelSpec, build_model
from .scalars import Q, rat_to_str

SCHEMA = "voacert-model/4"


def spec_digest(spec: ModelSpec) -> str:
    blob = json.dumps(spec_fields(spec), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _state_label(state: BasisState) -> str:
    factors = ";".join(f"{gid},{m}" for gid, m in state.factors)
    return f"{state.sector}|{factors}"


def _mat_to_sparse(block):
    return [len(block.rows), block.cols, [[i, j, rat_to_str(Q(x, block.den))]
                               for i, row in enumerate(block.rows)
                               for j, x in sorted(row.items())]]


def model_to_dict(model: Model) -> dict:
    blocks = {}
    for (gid, m), per_src in sorted(model._gen_blocks.items()):
        for src in sorted(per_src):
            blocks[f"{gid}:{m}:{src}"] = _mat_to_sparse(per_src[src])
    return {
        "schema": SCHEMA,
        "spec": spec_fields(model.spec),
        "digest": spec_digest(model.spec),
        "n_internal": model.n_internal,
        "dims": [model.dim(d) for d in range(model.n_internal + 1)],
        "states": [[_state_label(st) for st in model.basis.states(d)]
                   for d in range(model.n_internal + 1)],
        "nu": {_state_label(st): rat_to_str(co)
               for st, co in sorted(model.nu.terms.items(),
                                    key=lambda kv: _state_label(kv[0]))},
        "c": rat_to_str(model.c),
        "blocks": blocks,
    }


def save_model(model: Model, path: str):
    """Write a container, atomically."""
    # json.dumps runs the C encoder; json.dump to a file does not
    write_atomic(path, json.dumps(model_to_dict(model), sort_keys=True))


def write_atomic(path: str, text: str):
    """Write text verbatim to path through a temp file and one rename, so
    path never holds a partly written file and a failed write leaves none."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _stored_model(path: str, data: dict) -> Model:
    """The model of the container's spec; ModelBugError if the spec is
    missing or bad, a corrupt that names no entry among them."""
    fields = data.get("spec")
    try:
        if not (isinstance(fields, dict) and all(
                isinstance(v, str) for v in fields.values())):
            raise ConfigError("not an object of strings")
        return build_model(spec_from_fields("stored spec", fields))
    except (ConfigError, SpecError) as exc:
        raise ModelBugError(f"{path}: missing or malformed spec ({exc}); "
                            "stale or corrupted container") from None


def load_model(path: str) -> Model:
    """Rebuild the model for a stored container and verify it against it.

    Raises ConfigError for a container of another schema and ModelBugError
    when the file is not a JSON object, its spec is missing or malformed, its
    blocks are not an object, or a stored field differs from the rebuild.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError:
            data = None
    if not isinstance(data, dict):
        raise ModelBugError(f"{path} is not a JSON object; stale or "
                            "corrupted container")
    if data.get("schema") != SCHEMA:
        raise ConfigError(f"unknown container schema {data.get('schema')!r}")
    model = _stored_model(path, data)
    n = model.n_internal
    blocks = data.get("blocks", {})
    if not isinstance(blocks, dict):
        raise ModelBugError(f"{path}: stored blocks are not an object; "
                            "stale or corrupted container")
    for key in blocks:
        try:
            gid, m, src = (int(x) for x in key.split(":"))
        except ValueError:
            raise ModelBugError(f"malformed stored block key {key!r}") \
                from None
        if gid not in model.generators or not 0 <= src <= n \
                or not 0 <= src - m <= n:
            raise ModelBugError(f"stored block {key} lies outside the "
                                f"rebuilt truncation")
        model.gen_block(gid, m, src)  # materialize lazily built blocks
    rebuilt = model_to_dict(model)
    if rebuilt != data:
        field = next(f for f in {**rebuilt, **data}
                     if f not in rebuilt or f not in data
                     or rebuilt[f] != data[f])
        raise ModelBugError(f"stored {field} disagrees with rebuild; "
                            f"stale or corrupted container")
    return model


class ModelCache:
    """Directory of built models keyed by the digest of the whole spec, pad
    and corrupt included; a pad of N // 2 is the default spec, so a model
    has one container.  It holds no model in memory: each get_or_build
    call loads or builds one."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def path_for(self, spec: ModelSpec) -> str:
        return os.path.join(self.directory, spec_digest(spec) + ".json")

    def get_or_build(self, spec: ModelSpec) -> Model:
        path = self.path_for(spec)
        model = None
        if os.path.exists(path):
            try:
                model = load_model(path)
            except ConfigError:
                pass  # a container of another schema: rebuild, overwrite
            if model is not None and model.spec != spec:
                raise ModelBugError(
                    f"{path} holds {spec_fields(model.spec)} not "
                    f"{spec_fields(spec)}; stale or corrupted container")
        if model is None:
            model = build_model(spec)
            save_model(model, path)
        return model
