"""Flat key-value configuration files.

The format is line based on purpose: one ``key = value`` pair per line,
dotted prefixes group keys by module (``kinetic.eta = 0.5``), ``#`` starts
a full-line comment, and blank lines are ignored. Flat text diffs cleanly
and parses identically everywhere; there is no nesting, quoting, or
interpolation.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError

_MISSING = object()

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def parse_config(text: str) -> dict[str, str]:
    """Parse config text into an ordered key-value mapping.

    Raises
    ------
    ConfigError
        On a line without ``=``, an empty key, or a duplicate key.
    """
    out: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {number}: empty key")
        if key in out:
            raise ConfigError(f"line {number}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    """Read and parse a config file.

    Raises
    ------
    ConfigError
        If the file does not exist or fails to parse.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)


def require_known(cfg: dict[str, str], known) -> None:
    """Reject unknown keys so typos fail fast instead of silently."""
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _lookup(cfg, key, default, convert, expected: str):
    """``convert(cfg[key])``, or ``default`` when the key is absent.

    ``convert`` raises ``KeyError`` or ``ValueError`` on a value that is not
    ``expected``.
    """
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return convert(cfg[key])
    except (KeyError, ValueError):
        raise ConfigError(f"config key {key!r} must be {expected}, got {cfg[key]!r}")


def get_str(cfg, key, default=_MISSING, choices=None) -> str:
    if choices is None:
        return _lookup(cfg, key, default, str, "a string")
    return _lookup(cfg, key, default, {c: c for c in choices}.__getitem__,
                   f"one of {', '.join(choices)}")


def get_float(cfg, key, default=_MISSING) -> float:
    return _lookup(cfg, key, default, float, "a number")


def get_int(cfg, key, default=_MISSING) -> int:
    return _lookup(cfg, key, default, int, "an integer")


def get_bool(cfg, key, default=_MISSING) -> bool:
    return _lookup(cfg, key, default, lambda word: _BOOL_WORDS[word.lower()], "a boolean")
