"""Key=value config-file parsing and assembly into model objects.

The file format is deliberately tiny: one ``key = value`` pair per line,
``#`` starts a comment, blank lines ignored.  The keys are those of
``PARAMETERS``, which also gives each one's command-line flag; ``temp.C``
and ``temp.T`` (coth factor or temperature) are mutually exclusive.

Values are parsed exactly as decimals (``Decimal``), so config files never
pick up binary round-off beyond the final float conversion; ``inf`` is
accepted where it makes sense (e.g. ``temp.C = inf``).  Unknown or duplicate
keys are rejected with the offending line number.  A key left out keeps the
default of the model field it sets, so a file with no damping terms is the
closed system.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import NamedTuple

from .model import InitialStateSpec, OscillatorConfig, TemperatureSpec

__all__ = [
    "ConfigError",
    "CONFIG_KEYS",
    "PARAMETERS",
    "parse_config_text",
    "load_config_file",
    "build_model",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


class Parameter(NamedTuple):
    """One model parameter: its config key, its command-line flag, argparse
    dest and help line, and the constructor field it sets."""

    key: str
    flag: str
    dest: str
    help: str
    owner: type
    field: str


# Every model parameter, in the order of the CLI's help; keys left out of a
# config or a call take the dataclass defaults.
PARAMETERS = tuple(Parameter(*row) for row in (
    ("m", "--m", "m", "mass (default 1)", OscillatorConfig, "m"),
    ("omega", "--omega", "omega", "oscillator frequency (default 1)", OscillatorConfig, "omega"),
    ("lambda", "--lambda", "lam", "friction constant (default 0)", OscillatorConfig, "lam"),
    ("mu", "--mu", "mu", "friction asymmetry (default 0)", OscillatorConfig, "mu"),
    ("hbar", "--hbar", "hbar", "hbar (default 1)", OscillatorConfig, "hbar"),
    ("temp.C", "--coth", "coth", "thermal coth factor C (exclusive with --temp)",
     TemperatureSpec, "coth_value"),
    ("temp.T", "--temp", "temp", "bath temperature (exclusive with --coth)",
     TemperatureSpec, "temperature"),
    ("init.delta", "--delta-sq", "spread", "initial squeezing delta", InitialStateSpec, "spread"),
    ("init.r", "--corr-r", "corr", "initial correlation r", InitialStateSpec, "correlation"),
    ("init.q0", "--q0", "q0", "initial mean coordinate", InitialStateSpec, "center_q"),
    ("init.p0", "--p0", "p0", "initial mean momentum", InitialStateSpec, "center_p"),
))
_FIELDS = {row.key: (row.owner, row.field) for row in PARAMETERS}
CONFIG_KEYS = tuple(_FIELDS)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, float]:
    """Parse config text into a {key: float} mapping (no defaults applied)."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value_text:
            raise ConfigError(f"{source}:{lineno}: missing value for {key!r}")
        try:
            values[key] = float(Decimal(value_text))
        except (InvalidOperation, ValueError) as exc:  # ValueError: sNaN
            raise ConfigError(
                f"{source}:{lineno}: invalid number {value_text!r} for {key!r}"
            ) from exc
    if "temp.C" in values and "temp.T" in values:
        raise ConfigError(f"{source}: temp.C and temp.T are mutually exclusive")
    return values


def load_config_file(path: str | Path) -> dict[str, float]:
    """Read and parse a config file.  I/O errors propagate as ``OSError``."""
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def build_model(
    values: dict[str, float] | None = None,
    overrides: dict[str, float] | None = None,
) -> tuple[OscillatorConfig, InitialStateSpec]:
    """Assemble the oscillator config and initial-state spec.

    ``overrides`` (same key names) take precedence over ``values``; an
    override of either temperature key supersedes any file temperature.
    Only the keys given are passed on, so every other field keeps the default
    of :class:`OscillatorConfig` or :class:`InitialStateSpec`: the closed
    system at zero temperature and the unsqueezed, uncorrelated state at the
    origin.
    """
    merged = dict(values or {})
    cleaned = {k: v for k, v in (overrides or {}).items() if v is not None}
    if "temp.C" in cleaned and "temp.T" in cleaned:
        raise ConfigError("temp.C and temp.T are mutually exclusive")
    if "temp.C" in cleaned or "temp.T" in cleaned:
        merged.pop("temp.C", None)
        merged.pop("temp.T", None)
    merged.update(cleaned)
    unknown = set(merged) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    fields: dict[type, dict] = {cls: {} for cls, _ in _FIELDS.values()}
    for key, value in merged.items():
        cls, name = _FIELDS[key]
        fields[cls][name] = float(value)
    if fields[TemperatureSpec]:
        fields[OscillatorConfig]["temp"] = TemperatureSpec(**fields[TemperatureSpec])
    return OscillatorConfig(**fields[OscillatorConfig]), InitialStateSpec(
        **fields[InitialStateSpec]
    )
