import pytest

from linsys.eqsys import (
    FpSystem,
    ZEquation,
    ZSystem,
    parse_system,
    reduce_mod_p,
    render_system,
    subsystem,
)
from linsys.errors import ParseError


def test_parse_w_system():
    s = parse_system("x1 - x2 - x3 + x4 = 0\nx1 - 2x3 + x5 = 0")
    assert s.r == 5
    assert s.coefficient_rows() == ((1, -1, -1, 1, 0), (1, 0, -2, 0, 1))
    assert s.names == ("x1", "x2", "x3", "x4", "x5")


def test_parse_single_equation():
    s = parse_system("x1 - 2x2 + x3 = 0")
    assert s.coefficient_rows() == ((1, -2, 1),)


def test_parse_comments_blanks_and_whitespace():
    text = """
    # a 3-AP
      x1   -2x2+ x3  = 0   # trailing comment

    """
    s = parse_system(text)
    assert s.coefficient_rows() == ((1, -2, 1),)


def test_parse_leading_sign():
    s = parse_system("-x3 + x4 = 0")
    assert s.coefficient_rows() == ((0, 0, -1, 1),)


def test_parse_duplicate_variable_accumulates():
    s = parse_system("x1 + x1 - 2x2 = 0")
    assert s.coefficient_rows() == ((2, -2),)


def test_parse_zero_coefficient_declares_column():
    s = parse_system("x1 - x2 + 0x5 = 0")
    assert s.r == 5
    assert s.coefficient_rows() == ((1, -1, 0, 0, 0),)


def test_parse_r_is_largest_suffix():
    s = parse_system("x2 - x7 = 0")
    assert s.r == 7
    assert s.equations[0].support == (1, 6)


@pytest.mark.parametrize("text, fragment", [
    ("", "no equations found"),
    ("x1 - x2", "missing '= 0'"),
    ("x1 - x2 = 1", "right-hand side must be 0"),
    ("x1 - x2 = 0 x3", "trailing input"),
    ("x0 + x1 = 0", "index must be >= 1"),
    ("3 + x1 = 0", "expected variable after coefficient"),
    ("x1 ? x2 = 0", "unexpected character"),
    ("0x1 + 0x2 = 0", "all-zero equation"),
    ("x1 * x2 = 0", "unexpected character"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert fragment in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_system("x1 - x2 = 0\nx1 ? x2 = 0")
    assert err.value.line == 2
    assert err.value.col == 4
    assert "line 2, column 4" in str(err.value)


def test_parse_coefficient_overflow():
    big = 2**63
    with pytest.raises(ParseError) as err:
        parse_system(f"{big}x1 - x2 = 0")
    assert "overflow" in str(err.value)


def test_render_minimal_signs():
    s = parse_system("x1 - x2 - x3 + x4 = 0\nx1 - 2x3 + x5 = 0")
    assert render_system(s) == "x1 - x2 - x3 + x4 = 0\nx1 - 2x3 + x5 = 0"


def test_render_leading_negative():
    s = parse_system("-x3 + x4 = 0")
    assert render_system(s) == "-x3 + x4 = 0"


def test_render_anchors_trailing_zero_column():
    s = parse_system("x1 - x2 + 0x5 = 0\nx2 - x3 = 0")
    out = render_system(s)
    assert out.splitlines()[0].endswith("+ 0x5 = 0")
    again = parse_system(out)
    assert again.r == 5
    assert again.coefficient_rows() == s.coefficient_rows()


def test_render_parse_round_trip():
    text = "x1 + x2 + x3 + x4 - 4x5 = 0\nx1 + x2 - x5 - x6 = 0\nx1 - 2x6 + x7 = 0"
    s = parse_system(text)
    assert parse_system(render_system(s)).coefficient_rows() == s.coefficient_rows()


def test_zequation_validation():
    with pytest.raises(ValueError):
        ZEquation(())
    with pytest.raises(ValueError):
        ZEquation((0, 0))
    with pytest.raises(ValueError):
        ZEquation((2**63,))


def test_zsystem_validation():
    with pytest.raises(ValueError):
        ZSystem(0, ())
    with pytest.raises(ValueError):
        ZSystem(2, (ZEquation((1, -1, 0)),))  # width mismatch
    terminal = ZSystem(1, ())  # the reduction target: no equations, one variable
    assert terminal.L == 0 and terminal.names == ("x1",)


def test_is_balanced():
    assert parse_system("x1 - 2x2 + x3 = 0").equations[0].is_balanced
    assert not parse_system("x1 + x2 = 0").equations[0].is_balanced


def test_reduce_mod_p_w_system():
    s = parse_system("x1 - x2 - x3 + x4 = 0\nx1 - 2x3 + x5 = 0")
    assert reduce_mod_p(s, 3).rows == ((1, 2, 2, 1, 0), (1, 0, 1, 0, 1))
    assert reduce_mod_p(s, 5).rows == ((1, 4, 4, 1, 0), (1, 0, 3, 0, 1))
    assert not reduce_mod_p(s, 3).support_changed


def test_reduce_mod_p_vanishing_support():
    s = parse_system("3x1 - x2 - 2x3 = 0")
    t = reduce_mod_p(s, 3)
    assert t.rows == ((0, 2, 1),)
    assert t.support_changed
    assert t.vanished == ((0, 0),)


def test_reduce_mod_p_requires_prime():
    s = parse_system("x1 - x2 = 0")
    with pytest.raises(ValueError):
        reduce_mod_p(s, 4)


def test_fp_system_balanced_mod_p():
    t = FpSystem(3, 3, ((1, 2, 0),))
    assert t.is_balanced  # 1 + 2 = 3 = 0 mod 3
    assert not FpSystem(3, 2, ((1, 1),)).is_balanced


def test_subsystem_keeps_all_variables():
    s = parse_system("x1 + x2 - x3 - x4 = 0\nx5 + x6 - 2x7 = 0\nx5 + x7 + x8 - 3x9 = 0\nx4 - 2x5 + x8 = 0")
    sub = subsystem(s, [2, 0])
    assert sub.r == 9
    assert sub.L == 2
    assert sub.coefficient_rows()[0] == s.coefficient_rows()[0]
    assert sub.coefficient_rows()[1] == s.coefficient_rows()[2]
    with pytest.raises(IndexError):
        subsystem(s, [4])
    with pytest.raises(ValueError):
        subsystem(s, [0, 0])
