"""Construction, parsing and arithmetic of the exact scalar type."""

from fractions import Fraction as StdFraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from montesinos import INF, Frac, decimal_str


def test_canonical_form():
    assert (Frac(4, -6).num, Frac(4, -6).den) == (-2, 3)
    assert (Frac(0, 5).num, Frac(0, 5).den) == (0, 1)
    assert (Frac(10, 4).num, Frac(10, 4).den) == (5, 2)


def test_infinity_normalizes_to_one_over_zero():
    assert (Frac(1, 0).num, Frac(1, 0).den) == (1, 0)
    assert Frac(-3, 0) == INF
    assert INF.is_infinite


def test_zero_over_zero_rejected():
    with pytest.raises(ValueError):
        Frac(0, 0)


def test_non_integers_rejected():
    with pytest.raises(TypeError):
        Frac(1.5, 2)


@pytest.mark.parametrize(
    "text,num,den",
    [
        ("2/5", 2, 5), ("-11/21", -11, 21), ("7", 7, 1), ("-3", -3, 1), ("inf", 1, 0), ("1/0", 1, 0),
        (" 2/5\n", 2, 5), ("+3/ -4", -3, 4), (" -inf ", 1, 0),
    ],
)
def test_parse(text, num, den):
    f = Frac.parse(text)
    assert (f.num, f.den) == (num, den)


def test_parse_rejects_garbage():
    for bad in ("", "a/b", "1/2/3", "0/0", "1.5"):
        with pytest.raises(ValueError):
            Frac.parse(bad)


@pytest.mark.parametrize(
    "bad",
    # digit separators, Arabic-Indic, full-width and superscript digits,
    # all of which int() reads
    ["1_0/3_3", "1_0", "2/1_1", "\u0661/\u0662", "1/\u0663", "\uff17", "2/\u00b3", "--5", "+-5"],
)
def test_parse_reads_only_ascii_decimal_integers(bad):
    with pytest.raises(ValueError, match="not a fraction"):
        Frac.parse(bad)


def test_str_roundtrip():
    for f in (Frac(-2, 3), Frac(5), Frac(0), INF):
        assert Frac.parse(str(f)) == f


finite = st.builds(
    Frac,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


@given(finite, finite)
def test_arithmetic_matches_stdlib(a, b):
    sa, sb = StdFraction(a.num, a.den), StdFraction(b.num, b.den)
    for op in ("__add__", "__sub__", "__mul__"):
        got = getattr(a, op)(b)
        want = getattr(sa, op)(sb)
        assert (got.num, got.den) == (want.numerator, want.denominator)
    if b.num != 0:
        got = a / b
        want = sa / sb
        assert (got.num, got.den) == (want.numerator, want.denominator)
    assert (a < b) == (sa < sb)
    assert (a == b) == (sa == sb)


@given(finite)
def test_int_coercion(a):
    assert a + 1 == a + Frac(1)
    assert 1 + a == Frac(1) + a
    assert 2 * a == a + a
    assert a - a == 0


def test_infinite_arithmetic_rejected():
    with pytest.raises(ValueError):
        INF + 1
    with pytest.raises(ValueError):
        Frac(2) * INF


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Frac(1) / Frac(0)


def test_order_with_infinity():
    assert Frac(10**9) < INF
    assert INF <= INF
    assert not INF < INF
    assert sorted([INF, Frac(1, 2), Frac(-3)]) == [Frac(-3), Frac(1, 2), INF]


def test_integer_hash_consistency():
    assert hash(Frac(7)) == hash(7)
    assert {Frac(3): "a"}[3] == "a"


def test_no_float_contamination():
    assert Frac(1, 2).__add__(0.5) is NotImplemented


def test_decimal_str_is_display_only():
    assert decimal_str(Frac(7, 22)) == "0.318181818182"
    assert decimal_str(Frac(-18)) == "-18"
    assert decimal_str(INF) == "inf"
