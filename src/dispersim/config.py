"""Flat key-value configuration files.

The format is line based on purpose: one ``key = value`` pair per line,
dotted prefixes group keys by module (``kinetic.eta = 0.5``), ``#`` starts
a full-line comment, and blank lines are ignored. Flat text diffs cleanly
and parses identically everywhere; there is no nesting, quoting, or
interpolation.

A parsed file records every key the ``get_*`` readers look up, so that a
run can refuse the keys it never read instead of ignoring them.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError

_MISSING = object()

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


class Config(dict):
    """Ordered ``key -> value`` strings that remember which keys were read."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()

    def refuse_unread(self) -> None:
        """Raise :class:`ConfigError` naming every key no reader looked up."""
        unread = sorted(set(self) - self.read)
        if unread:
            raise ConfigError(
                f"unknown config keys: {', '.join(unread)} (not read by this run)")


def parse_config(text: str) -> Config:
    """Parse config text into an ordered key-value mapping.

    Raises
    ------
    ConfigError
        On a line without ``=``, an empty key, or a duplicate key.
    """
    out = Config()
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


def load_config(path) -> Config:
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


def _lookup(cfg, key, default, convert, expected: str):
    """``convert(cfg[key])``, or ``default`` when the key is absent.

    ``convert`` raises ``KeyError`` or ``ValueError`` on a value that is not
    ``expected``. A :class:`Config` records ``key`` as read.
    """
    if isinstance(cfg, Config):
        cfg.read.add(key)
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


def _finite_float(word: str) -> float:
    value = float(word)
    if not math.isfinite(value):
        raise ValueError(word)
    return value


def get_float(cfg, key, default=_MISSING) -> float:
    return _lookup(cfg, key, default, _finite_float, "a finite number")


def get_int(cfg, key, default=_MISSING) -> int:
    return _lookup(cfg, key, default, int, "an integer")


def get_bool(cfg, key, default=_MISSING) -> bool:
    return _lookup(cfg, key, default, lambda word: _BOOL_WORDS[word.lower()], "a boolean")
