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

from dataclasses import dataclass, field

from .errors import ConfigError
from .graded_fock import ModelSpec, heisenberg_spec, lattice_spec, \
    virasoro_spec
from .scalars import rat_from_str


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
        from .cli import CHECKS  # cli imports this module

        for check in self.checks:
            name, ctype = check.get("name"), check.get("type")
            if ctype not in CHECKS:
                raise ConfigError(f"check {name!r}: unknown type {ctype!r}")
            mname = check.get("model")
            if mname not in self.models:
                raise ConfigError(
                    f"check {name!r}: unknown model {mname!r}")
            window = CHECKS[ctype].window
            size = sum(check.get(f, 0) for f in window)
            if size > self.models[mname].N:
                raise ConfigError(
                    f"check {name!r}: window {'+'.join(window)} = {size} "
                    f"exceeds truncation N={self.models[mname].N}")
        if self.jobs < 0:
            raise ConfigError("jobs must be nonnegative")
        return self


def spec_from_fields(where: str, fields: dict) -> ModelSpec:
    """Model spec from named fields; errors start with `where`."""
    kind = fields.get("kind")
    try:
        n = int(fields["N"])
    except KeyError:
        raise ConfigError(f"{where}: missing N") from None
    if kind == "heisenberg":
        rank = int(fields.get("rank", 1))
        metric = fields.get("metric")
        if metric:
            rows = tuple(tuple(rat_from_str(x) for x in row.split(","))
                         for row in metric.split(";"))
            return heisenberg_spec(rank, n, rows)
        return heisenberg_spec(rank, n)
    if kind == "virasoro":
        if "c" not in fields:
            raise ConfigError(f"{where}: missing central charge c")
        return virasoro_spec(fields["c"], n)
    if kind == "lattice":
        if "q" not in fields:
            raise ConfigError(f"{where}: missing lattice square q")
        return lattice_spec(int(fields["q"]), n)
    raise ConfigError(f"{where}: unknown kind {kind!r}")


def make_check(name: str, ctype, fields: dict) -> dict:
    """A check of a registered type, every field parsed by its FIELDS type.

    Raises ConfigError for an unknown type, a field the type does not read
    or a value that does not parse.
    """
    from .cli import CHECKS, FIELDS  # cli imports this module

    if ctype not in CHECKS:
        raise ConfigError(f"check {name!r}: unknown type {ctype!r}")
    check = {"name": name, "type": ctype}
    for fname, value in fields.items():
        if fname not in CHECKS[ctype].fields:
            raise ConfigError(f"check {name!r}: field {fname!r} does not "
                              f"apply to type {ctype!r}")
        try:
            check[fname] = FIELDS[fname](value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"check {name!r}: bad value for {fname}: {value!r}"
            ) from None
    return check


def parse_config(text: str) -> SuiteConfig:
    sections = {"model": {}, "check": {}}
    top = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        parts = key.split(".")
        if parts[0] in sections:
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: {parts[0]} keys look like "
                                  f"{parts[0]}.<name>.<field>")
            sections[parts[0]].setdefault(parts[1], {})[parts[2]] = value
        elif len(parts) == 1:
            top[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown section {parts[0]!r}")

    config = SuiteConfig()
    for name, fields in sorted(sections["model"].items()):
        config.models[name] = spec_from_fields(f"model {name!r}", fields)
        config.pads[name] = int(fields["pad"]) if "pad" in fields else None
        if "corrupt" in fields:
            parts = fields["corrupt"].split(",")
            if len(parts) != 6:
                raise ConfigError(
                    f"model {name!r}: corrupt takes gid,m,src,row,col,delta")
            config.corrupts[name] = tuple(int(x) for x in parts)
        else:
            config.corrupts[name] = None
    for name, fields in sorted(sections["check"].items()):
        fields = dict(fields)
        ctype, mname = fields.pop("type", None), fields.pop("model", None)
        config.checks.append({**make_check(name, ctype, fields),
                              "model": mname})
    settings = {"tolerance": float, "output_dir": str, "cache_dir": str,
                "jobs": int}
    for key, value in top.items():
        if key not in settings:
            raise ConfigError(f"unknown setting {key!r}")
        try:
            setattr(config, key, settings[key](value))
        except ValueError:
            raise ConfigError(f"bad {key} value {value!r}") from None
    return config.validate()


def load_config(path: str) -> SuiteConfig:
    with open(path) as fh:
        return parse_config(fh.read())
