"""Config-file parsing and model construction."""

import math

import pytest

from lindosc.config_io import (
    CONFIG_KEYS,
    ConfigError,
    build_model,
    load_config_file,
    parse_config_text,
)
from lindosc.model import InitialStateSpec, OscillatorConfig

SAMPLE = """
# damped oscillator, warm bath
m = 1.0
omega = 1.0
lambda = 0.2     # coupling
mu = 0.1
temp.C = 3
init.delta = 4.0
init.r = 0.0
"""


def test_parse_sample():
    values = parse_config_text(SAMPLE)
    assert values["lambda"] == 0.2
    assert values["temp.C"] == 3.0
    assert values["init.delta"] == 4.0


def test_known_keys_cover_sample():
    for key in parse_config_text(SAMPLE):
        assert key in CONFIG_KEYS


def test_decimal_parsing_is_exact():
    values = parse_config_text("mu = 0.1")
    assert values["mu"] == 0.1  # closest double to the decimal literal


def test_inline_comments_and_blank_lines():
    values = parse_config_text("\n\n  m = 2.0  # heavy\n\n")
    assert values == {"m": 2.0}


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r":3: unknown key"):
        parse_config_text("m = 1.0\nomega = 1.0\nbogus = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("m = 1.0\nm = 2.0\n")


def test_missing_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("m =\n")


def test_garbage_line_rejected():
    with pytest.raises(ConfigError, match=r":1: "):
        parse_config_text("not a key value pair\n")


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("m = fast\n")


@pytest.mark.parametrize("text", ["sNaN", "-sNaN", "sNaN7"])
def test_signalling_nan_reports_its_location(text):
    # float(Decimal("sNaN")) raises ValueError, not InvalidOperation
    with pytest.raises(ConfigError, match=rf"^osc\.cfg:2: invalid number '{text}' for 'mu'$"):
        parse_config_text(f"lambda = 0.2\nmu = {text}\n", source="osc.cfg")


def test_infinite_temperature_accepted():
    values = parse_config_text("temp.C = inf\n")
    assert math.isinf(values["temp.C"])


def test_both_temperature_forms_rejected():
    with pytest.raises(ConfigError, match="temp"):
        parse_config_text("temp.C = 3\ntemp.T = 2\n")


def test_source_name_appears_in_errors():
    with pytest.raises(ConfigError, match="myfile.cfg"):
        parse_config_text("junk = 1\n", source="myfile.cfg")


def test_load_config_file(tmp_path):
    path = tmp_path / "osc.cfg"
    path.write_text(SAMPLE)
    assert load_config_file(path) == parse_config_text(SAMPLE)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config_file(tmp_path / "nope.cfg")


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def test_build_model_defaults():
    cfg, spec = build_model()
    assert cfg.m == 1.0 and cfg.omega == 1.0 and cfg.hbar == 1.0
    assert cfg.lam == 0.0 and cfg.mu == 0.0
    assert cfg.closed_system  # no damping terms given
    assert cfg.coth_epsilon == 1.0
    assert spec.spread == 1.0 and spec.correlation == 0.0


def test_build_model_keeps_the_model_defaults():
    assert build_model() == (OscillatorConfig(), InitialStateSpec())


def test_build_model_from_values():
    cfg, spec = build_model(parse_config_text(SAMPLE))
    assert cfg.lam == 0.2 and cfg.mu == 0.1
    assert not cfg.closed_system
    assert cfg.coth_epsilon == 3.0
    assert spec.spread == 4.0


def test_overrides_take_precedence():
    cfg, _ = build_model(parse_config_text(SAMPLE), {"lambda": 0.3})
    assert cfg.lam == 0.3


def test_none_overrides_are_skipped():
    cfg, _ = build_model(parse_config_text(SAMPLE), {"lambda": None})
    assert cfg.lam == 0.2


def test_temperature_override_supersedes_file_choice():
    # file pins temp.C; an override through temp.T must win, not clash
    cfg, _ = build_model(parse_config_text(SAMPLE), {"temp.T": 2.0})
    assert cfg.temperature == 2.0


def test_unknown_override_rejected():
    with pytest.raises(ConfigError):
        build_model(None, {"speed": 3.0})


def test_kelvin_temperature_from_file():
    cfg, _ = build_model(parse_config_text("lambda = 0.1\ntemp.T = 2.0\n"))
    assert cfg.coth_epsilon == pytest.approx(1.0 / math.tanh(0.25), rel=1e-14)


def test_initial_center_keys():
    cfg, spec = build_model(parse_config_text("init.q0 = 6.0\ninit.p0 = 4.0\n"))
    assert spec.center_q == 6.0 and spec.center_p == 4.0


def test_invalid_physics_surfaces_as_value_error():
    with pytest.raises(ValueError):
        build_model(parse_config_text("mu = 2.0\nlambda = 2.5\n"))  # overdamped
