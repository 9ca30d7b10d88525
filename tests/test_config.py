import pytest

from voacert.cli import CHECKS, FIELDS
from voacert.config import parse_config
from voacert.errors import ConfigError
from voacert.scalars import Q

GOOD = """
# a small suite
model.h.kind = heisenberg
model.h.N = 8
model.v.kind = virasoro
model.v.c = 1/2
model.v.N = 8
model.l.kind = lattice
model.l.q = 2
model.l.N = 6

check.ax.type = axioms
check.ax.model = h
check.ax.samples = 50

check.vb.type = virasoro_bound
check.vb.model = v
check.vb.m_max = 2
check.vb.n_max = 4

tolerance = 1e-8
jobs = 2
"""


def test_parse_good_config():
    config = parse_config(GOOD)
    assert set(config.models) == {"h", "v", "l"}
    assert config.models["v"].kind == "virasoro"
    assert len(config.checks) == 2
    assert config.checks[0]["samples"] == 50
    assert config.tolerance == 1e-8
    assert config.jobs == 2


def test_corrupt_field_parses():
    text = GOOD + "model.h.corrupt = 0,-1,2,0,0,1\n"
    config = parse_config(text)
    assert config.corrupts["h"] == (0, -1, 2, 0, 0, 1)


@pytest.mark.parametrize("key,value", [
    ("model.h.N", "6"), ("check.ax.type", "unitarity"), ("jobs", "1")])
def test_a_repeated_key_is_rejected(key, value):
    # the last value once won silently: N = 6, or only the second type ran
    first = next(i for i, line in enumerate(GOOD.splitlines(), 1)
                 if line.startswith(key + " "))
    again = len(GOOD.splitlines()) + 1
    with pytest.raises(ConfigError, match=rf"line {again}: '{key}' repeats "
                                          rf"line {first}$"):
        parse_config(GOOD + f"{key} = {value}\n")


def test_unknown_check_type_rejected():
    with pytest.raises(ConfigError):
        parse_config(GOOD + "check.bad.type = nonsense\n"
                            "check.bad.model = h\n")


def test_unknown_model_reference_rejected():
    with pytest.raises(ConfigError):
        parse_config(GOOD + "check.bad.type = axioms\n"
                            "check.bad.model = missing\n")


def test_window_beyond_truncation_rejected():
    with pytest.raises(ConfigError):
        parse_config(GOOD + "check.big.type = virasoro_bound\n"
                            "check.big.model = v\n"
                            "check.big.m_max = 6\n"
                            "check.big.n_max = 6\n")


def test_missing_required_model_field():
    with pytest.raises(ConfigError):
        parse_config("model.x.kind = virasoro\nmodel.x.N = 6\n")
    with pytest.raises(ConfigError):
        parse_config("model.x.kind = heisenberg\n")


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError):
        parse_config("just some words\n")
    with pytest.raises(ConfigError):
        parse_config("mystery.key = 1\n")
    with pytest.raises(ConfigError):
        parse_config("unknown_setting = 1\n")


def test_unknown_check_field_rejected():
    with pytest.raises(ConfigError):
        parse_config(GOOD + "check.ax.frobnicate = 1\n")


def test_field_the_type_does_not_read_is_rejected():
    for extra in ("check.ax.m_max = 2\n", "check.ax.state = nu\n",
                  "check.vb.samples = 5\n", "check.vb.q = 1/2\n"):
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(GOOD + extra)


def test_rational_fields_are_parsed_with_the_config():
    orbifold = ("check.o.type = orbifold\ncheck.o.model = h\n"
                "check.o.n_max = 4\n")
    with pytest.raises(ConfigError, match="bad value for s"):
        parse_config(GOOD + orbifold + "check.o.s = abc\n")
    with pytest.raises(ConfigError, match="bad value for q"):
        parse_config(GOOD + "check.t.type = trace_domination\n"
                            "check.t.model = h\ncheck.t.q = 1/0\n")
    config = parse_config(GOOD + orbifold + "check.o.s = 3/2\n")
    check = next(c for c in config.checks if c["name"] == "o")
    assert check["s"] == Q(3, 2)


def test_every_registered_type_parses_with_every_field_it_reads():
    values = {"state": "nu", "with": "nu", "m_max": "1", "n_max": "2",
              "samples": "3", "seed": "4", "degree_cap": "2", "p": "0",
              "d": "1", "q": "1/2", "s": "1"}
    assert set(values) == set(FIELDS)
    for ctype, entry in CHECKS.items():
        lines = [f"check.x.type = {ctype}", "check.x.model = h"]
        lines += [f"check.x.{f} = {values[f]}" for f in entry.fields]
        config = parse_config(GOOD + "\n".join(lines) + "\n")
        check = next(c for c in config.checks if c["name"] == "x")
        assert set(check) == {"name", "type", "model", *entry.fields}
        assert set(entry.window) <= set(entry.fields)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-8", "NaN"])
def test_non_finite_or_negative_tolerance_is_rejected(value):
    text = GOOD.replace("tolerance = 1e-8", f"tolerance = {value}")
    with pytest.raises(ConfigError, match="setting: bad value for tolerance"):
        parse_config(text)


def test_zero_tolerance_is_accepted():
    text = GOOD.replace("tolerance = 1e-8", "tolerance = 0")
    assert parse_config(text).tolerance == 0.0


BAD_MODEL_FIELDS = {
    "N": "model.x.kind = heisenberg\nmodel.x.N = six\n",
    "rank": "model.h.rank = two\n",
    "pad": "model.h.pad = x\n",
    "corrupt": "model.h.corrupt = 0,-1,2,0,zero,1\n",
    "q": "model.x.kind = lattice\nmodel.x.q = two\n",
    "c": "model.x.kind = virasoro\nmodel.x.c = half\n",
    "metric": "model.h.metric = a\n",
}


@pytest.mark.parametrize("field", sorted(BAD_MODEL_FIELDS))
def test_bad_model_field_is_a_config_error(field):
    line = BAD_MODEL_FIELDS[field]
    model = line.split(".")[1]
    with pytest.raises(ConfigError,
                       match=f"model '{model}': bad value for {field}"):
        parse_config(GOOD + line)


def test_corrupt_needs_six_fields():
    with pytest.raises(ConfigError, match="bad value for corrupt"):
        parse_config(GOOD + "model.h.corrupt = 0,-1,2\n")


# values that leave a window or a sample run empty, so nothing is checked
BELOW_RANGE = [("m_max", "-1"), ("m_max", "-9"), ("n_max", "-1"),
               ("samples", "0"), ("samples", "-4")]


@pytest.mark.parametrize("field, value", BELOW_RANGE)
def test_a_value_below_its_field_range_is_a_config_error(field, value):
    ctype = "axioms" if field == "samples" else "virasoro_bound"
    text = GOOD + (f"check.x.type = {ctype}\ncheck.x.model = v\n"
                   f"check.x.{field} = {value}\n")
    with pytest.raises(ConfigError,
                       match=f"check 'x': bad value for {field}: '{value}'"):
        parse_config(text)


def test_the_lowest_value_of_each_field_range_is_accepted():
    config = parse_config(GOOD + "check.x.type = virasoro_bound\n"
                                 "check.x.model = v\ncheck.x.m_max = 0\n"
                                 "check.x.n_max = 0\n"
                                 "check.y.type = axioms\ncheck.y.model = h\n"
                                 "check.y.samples = 1\n")
    checks = {c["name"]: c for c in config.checks}
    assert (checks["x"]["m_max"], checks["x"]["n_max"]) == (0, 0)
    assert checks["y"]["samples"] == 1


VIR6 = "model.w.kind = virasoro\nmodel.w.c = 1/2\nmodel.w.N = 6\n"


@pytest.mark.parametrize("pad", [-1, 7])
def test_a_pad_outside_zero_to_n_is_a_config_error(pad):
    with pytest.raises(ConfigError,
                       match=rf"model 'w': pad {pad} lies outside \[0, 6\]"):
        parse_config(GOOD + VIR6 + f"model.w.pad = {pad}\n")


@pytest.mark.parametrize("pad", [0, 6])
def test_a_pad_of_zero_or_n_is_accepted(pad):
    assert parse_config(GOOD + VIR6 + f"model.w.pad = {pad}\n").pads["w"] \
        == pad


@pytest.mark.parametrize("key", [
    "check./tmp/x/evil.type", "check.sub/evil.type", "check.a b.type",
    "model./tmp/x/m.kind", "model.é.kind"])
def test_a_name_outside_the_name_alphabet_is_a_config_error(key):
    section, name, _ = key.split(".")
    with pytest.raises(ConfigError,
                       match=f"{section} name {name!r} is not"):
        parse_config(GOOD + f"{key} = norms\n")
