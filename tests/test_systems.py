"""Built-in systems: a table made once, never parsed on lookup."""
import pytest

import linsys.systems
from linsys.eqsys import parse_system
from linsys.systems import _DEFS, builtin, builtin_names


def _star_text(k):
    center = f"x{2 * k + 1}"
    return "\n".join(f"x{2 * i - 1} + x{2 * i} - 2{center} = 0" for i in range(1, k + 1))


_TEXTS = {**_DEFS, **{f"STAR{k}": _star_text(k) for k in range(1, 21)}}
# parsed at collection, before any test replaces parse_system
_PARSED = {name: parse_system(text) for name, text in _TEXTS.items()}


def test_builtin_is_the_parsed_text_without_parsing(monkeypatch):
    def refuse(text):
        raise AssertionError("builtin parsed a text")

    monkeypatch.setattr(linsys.systems, "parse_system", refuse)
    for name, want in _PARSED.items():
        assert builtin(name) == want, name
        assert builtin(f" {name.lower()} ") == want, name  # case and spaces do not matter


def test_builtin_hands_out_one_object_per_name():
    assert builtin("SW") is builtin("sw")
    assert builtin("STAR3") is builtin("Star3")


@pytest.mark.parametrize("name", ["NOSUCH", "STAR", "STARx", "S9", ""])
def test_unknown_name_raises_key_error(name):
    with pytest.raises(KeyError, match="unknown system"):
        builtin(name)


@pytest.mark.parametrize("name, message", [
    ("STAR0", "STAR index must be >= 1"),
    ("STAR32", "r=65 exceeds the supported limit"),
    ("STAR" + "9" * 40, "exceeds the supported limit"),  # refused before any row is built
])
def test_star_index_out_of_range_raises_value_error(name, message):
    with pytest.raises(ValueError, match=message):
        builtin(name)


def test_largest_star_fits_the_variable_limit():
    s = builtin("STAR31")
    assert (s.r, s.L) == (63, 31) and s.is_balanced


def test_names_list_every_definition():
    assert builtin_names() == tuple(sorted(_DEFS)) + ("STAR<k>",)
