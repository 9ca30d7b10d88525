"""Suite configuration: a flat key=value text format.

Lines look like `model.main.kind = lattice` or `check.ax.type = axioms`;
`#` starts a comment.  Dotted prefixes group models and checks; everything
else is a top-level setting.  Example:

    model.heis.kind = heisenberg
    model.heis.N = 8
    check.ax.type = axioms
    check.ax.model = heis
    check.ax.samples = 500
    tolerance = 1e-8
    output_dir = reports
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ConfigError, SpecError
from .graded_fock import SPEC_FIELDS, ModelSpec
from .scalars import rational


@dataclass
class SuiteConfig:
    models: dict = field(default_factory=dict)   # name -> ModelSpec
    pads: dict = field(default_factory=dict)     # name -> int or None
    corrupts: dict = field(default_factory=dict)  # name -> tuple or None
    checks: list = field(default_factory=list)   # [{"name", "type", ...}]
    tolerance: float = 1e-8
    output_dir: str = "reports"
    jobs: int = 0  # 0 = auto
    cache_dir: str = ""

    def validate(self):
        from .cli import CHECKS, window_defaults  # cli imports this module

        for check in self.checks:
            name, ctype = check.get("name"), check.get("type")
            if ctype not in CHECKS:
                raise ConfigError(f"check {name!r}: unknown type {ctype!r}")
            mname = check.get("model")
            if mname not in self.models:
                raise ConfigError(
                    f"check {name!r}: unknown model {mname!r}")
            window, n = CHECKS[ctype].window, self.models[mname].N
            size = sum(window_defaults(check, n)[f] for f in window)
            if size > n:
                raise ConfigError(
                    f"check {name!r}: window {'+'.join(window)} = {size} "
                    f"exceeds truncation N={n}")
        if self.jobs < 0:
            raise ConfigError("jobs must be nonnegative")
        return self


# A model or check name: it names the check's files in the output directory.
NAME = re.compile(r"[A-Za-z0-9_-]+")


def _parse_field(where: str, fields: dict, name: str, parse, default=None):
    """fields[name] parsed, or default when it is absent.

    A value that does not parse is a ConfigError naming `where` and the
    field.
    """
    if name not in fields:
        return default
    try:
        return parse(fields[name])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{where}: bad value for {name}: "
                          f"{fields[name]!r}") from None


def _metric(value: str):
    """'a,b;c,d' as rows of rationals."""
    return tuple(tuple(rational(x) for x in row.split(","))
                 for row in value.split(";"))


def _corrupt(value: str):
    """gid,m,src,row,col,delta as six ints."""
    parts = value.split(",")
    if len(parts) != 6:
        raise ValueError(value)
    return tuple(int(x) for x in parts)


# Every model field with its parser.  Every kind reads kind, N and corrupt;
# KIND_FIELDS names what each kind reads besides, and REQUIRED the fields
# that have no default.
MODEL_FIELDS = {"kind": str, "N": int, "pad": int, "corrupt": _corrupt,
                "rank": int, "metric": _metric, "c": rational, "q": int}
KIND_FIELDS = {**SPEC_FIELDS, "virasoro": SPEC_FIELDS["virasoro"] + ("pad",)}
REQUIRED = ("N", "c", "q")


def spec_from_fields(where: str, fields: dict):
    """Validated (spec, pad, corrupt) from named model fields.

    Every value is parsed first; then a field the kind does not read, or a
    missing one it needs, is a ConfigError.  Errors start with `where`.
    """
    parsed = {name: _parse_field(where, fields, name,
                                 MODEL_FIELDS.get(name, str))
              for name in fields}
    kind = parsed.get("kind")
    if kind not in KIND_FIELDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    reads = ("kind", "N", "corrupt") + KIND_FIELDS[kind]
    for name in parsed:
        if name not in reads:
            raise ConfigError(f"{where}: field {name!r} does not apply to "
                              f"kind {kind!r}")
    for name in REQUIRED:
        if name in reads and name not in parsed:
            raise ConfigError(f"{where}: missing {name}")
    pad, corrupt = parsed.pop("pad", None), parsed.pop("corrupt", None)
    spec = ModelSpec(**parsed)
    try:
        spec.validate(pad)
    except SpecError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return spec, pad, corrupt


def _tolerance(value: str) -> float:
    """A finite, nonnegative float; nan would pass every bound cell."""
    tol = float(value)
    if not 0 <= tol < math.inf:
        raise ValueError(value)
    return tol


def make_check(name: str, ctype, fields: dict) -> dict:
    """A check of a registered type, every field parsed by its FIELDS type.

    Raises ConfigError for an unknown type, a field the type does not read
    or a value that does not parse.
    """
    from .cli import CHECKS, FIELDS  # cli imports this module

    if ctype not in CHECKS:
        raise ConfigError(f"check {name!r}: unknown type {ctype!r}")
    check = {"name": name, "type": ctype}
    for fname in fields:
        if fname not in CHECKS[ctype].fields:
            raise ConfigError(f"check {name!r}: field {fname!r} does not "
                              f"apply to type {ctype!r}")
        check[fname] = _parse_field(f"check {name!r}", fields, fname,
                                    FIELDS[fname])
    return check


def parse_config(text: str) -> SuiteConfig:
    sections = {"model": {}, "check": {}}
    top = {}
    set_on = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key!r} repeats line "
                              f"{set_on[key]}")
        set_on[key] = lineno
        parts = key.split(".")
        if parts[0] in sections:
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: {parts[0]} keys look like "
                                  f"{parts[0]}.<name>.<field>")
            if not NAME.fullmatch(parts[1]):
                raise ConfigError(f"line {lineno}: {parts[0]} name "
                                  f"{parts[1]!r} is not [A-Za-z0-9_-]+")
            sections[parts[0]].setdefault(parts[1], {})[parts[2]] = value
        elif len(parts) == 1:
            top[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown section {parts[0]!r}")

    config = SuiteConfig()
    for name, fields in sorted(sections["model"].items()):
        config.models[name], config.pads[name], config.corrupts[name] = \
            spec_from_fields(f"model {name!r}", fields)
    for name, fields in sorted(sections["check"].items()):
        fields = dict(fields)
        ctype, mname = fields.pop("type", None), fields.pop("model", None)
        config.checks.append({**make_check(name, ctype, fields),
                              "model": mname})
    settings = {"tolerance": _tolerance, "output_dir": str, "cache_dir": str,
                "jobs": int}
    for key in top:
        if key not in settings:
            raise ConfigError(f"unknown setting {key!r}")
        setattr(config, key,
                _parse_field("setting", top, key, settings[key]))
    return config.validate()


def load_config(path: str) -> SuiteConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") \
            from None
    except UnicodeDecodeError:
        raise ConfigError(f"config {path} is not UTF-8 text") from None
    return parse_config(text)
