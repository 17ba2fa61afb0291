"""Tests for the flat key-value config format."""

from __future__ import annotations

import pytest

from dispersim.config import (
    get_bool,
    get_float,
    get_int,
    get_str,
    load_config,
    parse_config,
)
from dispersim.errors import ConfigError


def test_parse_basic_pairs_and_whitespace():
    cfg = parse_config("a = 1\n  b=two \nc  =   3.5\n")
    assert cfg == {"a": "1", "b": "two", "c": "3.5"}


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config("# heading\n\na = 1\n   # indented comment\n")
    assert cfg == {"a": "1"}


def test_value_may_contain_equals_sign():
    cfg = parse_config("label = x = y\n")
    assert cfg == {"label": "x = y"}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("= 1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("a = 1\nb = 2\na = 3\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("x = 4\n")
    assert load_config(path) == {"x": "4"}


def test_parsed_config_refuses_the_keys_no_reader_looked_up():
    cfg = parse_config("eta = 1\netaa = 2\nfast = on\n")
    assert get_float(cfg, "eta") == 1.0
    assert get_int(cfg, "steps", 10) == 10
    with pytest.raises(ConfigError, match="unknown config keys: etaa, fast"):
        cfg.refuse_unread()
    assert get_bool(cfg, "fast")
    with pytest.raises(ConfigError, match="unknown config keys: etaa "):
        cfg.refuse_unread()
    with pytest.raises(ConfigError, match="'etaa' must be a boolean"):
        get_bool(cfg, "etaa")
    cfg.refuse_unread()
    assert cfg.read == {"eta", "steps", "fast", "etaa"}


def test_get_str_choices():
    cfg = {"shape": "matched"}
    assert get_str(cfg, "shape") == "matched"
    assert get_str(cfg, "other", default="x") == "x"
    with pytest.raises(ConfigError):
        get_str(cfg, "missing")
    with pytest.raises(ConfigError, match="one of"):
        get_str(cfg, "shape", choices=("monotone",))


def test_get_float_and_int():
    cfg = {"eta": "0.5", "n": "12", "bad": "soup"}
    assert get_float(cfg, "eta") == 0.5
    assert get_float(cfg, "gone", default=1.5) == 1.5
    assert get_int(cfg, "n") == 12
    assert get_int(cfg, "gone", default=3) == 3
    with pytest.raises(ConfigError):
        get_float(cfg, "bad")
    with pytest.raises(ConfigError):
        get_int(cfg, "eta")
    with pytest.raises(ConfigError):
        get_int(cfg, "gone")


@pytest.mark.parametrize("word", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_get_float_refuses_non_finite_numbers(word):
    with pytest.raises(ConfigError, match="'eta' must be a finite number"):
        get_float({"eta": word}, "eta")


def test_get_bool_words():
    cfg = {
        "a": "true", "b": "Yes", "c": "on", "d": "1",
        "e": "false", "f": "No", "g": "off", "h": "0", "i": "maybe",
    }
    assert get_bool(cfg, "a") and get_bool(cfg, "b") and get_bool(cfg, "c")
    assert get_bool(cfg, "d")
    assert not get_bool(cfg, "e") and not get_bool(cfg, "f")
    assert not get_bool(cfg, "g") and not get_bool(cfg, "h")
    assert get_bool(cfg, "gone", default=True)
    with pytest.raises(ConfigError):
        get_bool(cfg, "i")
