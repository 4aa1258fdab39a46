"""Tests for the expression compiler and the function catalog."""

import math
import warnings

import numpy as np
import pytest

from tuckercheb import catalog, cli
from tuckercheb.funcexpr import MAX_NESTING, ParseError, parse

# Hand-written numpy forms of the catalog entries, the reference for catalog.get.
NUMPY_FORMS = {
    "runge3": lambda x, y, z: 1 / (1 + 25 * np.sqrt(x**2 + y**2 + z**2)),
    "expdist": lambda x, y, z: np.exp(-np.sqrt((x - 1) ** 2 + (y - 1) ** 2 + (z - 1) ** 2)),
    "coshinv": lambda x, y, z: 1 / np.cosh(3 * (x + y + z)) ** 2,
    "spike": lambda x, y, z: 1e5 / (1 + 1e5 * (x**2 + y**2 + z**2)),
    "logmix": lambda x, y, z: np.log(
        x + y * z + np.exp(x * y * z) + np.cos(np.sin(np.exp(x * y * z)))
    ),
    "separable-demo": lambda x, y, z: np.exp(x) * np.cos(y) * (z**2 + 1),
    "degenerate-tanh": lambda x, y, z: np.tanh(5 * (x + z)) * np.exp(y),
}


def ev(src, x=0.0, y=0.0, z=0.0):
    return parse(src)(x, y, z)


class TestParseEval:
    def test_number(self):
        assert ev("1.5") == 1.5
        assert ev("2e-3") == 2e-3
        assert ev(".25") == 0.25

    def test_variables(self):
        assert ev("x+2*y-z", 1.0, 2.0, 3.0) == pytest.approx(2.0)

    def test_constants(self):
        assert ev("pi") == pytest.approx(math.pi)
        assert ev("e") == pytest.approx(math.e)

    def test_precedence(self):
        assert ev("2+3*4") == 14.0
        assert ev("2*3^2") == 18.0
        assert ev("(2+3)*4") == 20.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus(self):
        assert ev("-2^2") == -4.0
        assert ev("(-2)^2") == 4.0
        assert ev("--3") == 3.0

    def test_functions(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0)
        assert ev("exp(log(5))") == pytest.approx(5.0)
        assert ev("sqrt(abs(-9))") == pytest.approx(3.0)
        assert ev("tanh(0)") == 0.0

    def test_division_ieee(self):
        assert math.isnan(ev("0/0"))
        assert ev("1/0") == math.inf
        assert math.isnan(ev("log(-1)"))

    @pytest.mark.parametrize(
        "arg", [0.0, np.float64(0.0), np.zeros(3)], ids=["float", "float64", "array"]
    )
    def test_ieee_without_warnings(self, arg):
        cases = [
            ("0/0", math.nan), ("1/0", math.inf), ("log(-1)", math.nan), ("(-8)^(1/3)", math.nan),
            ("x/x", math.nan), ("1/x", math.inf), ("log(x-1)", math.nan), ("(x-8)^(1/3)", math.nan),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for src, expect in cases:
                value = np.broadcast_to(ev(src, arg, arg, arg), np.shape(arg))
                np.testing.assert_array_equal(value, np.full(np.shape(arg), expect), err_msg=src)

    def test_vectorized(self):
        f = parse("x*y+cos(z)")
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(f(x, x, x), x * x + np.cos(x), atol=1e-15)

    def test_parse_errors_carry_position(self):
        # tab and no-break space separate tokens as a space does
        cases = (
            ("1+", 2), ("foo(x)", 0), ("sin x", 4), ("1 $ 2", 2),
            ("1\t$ 2", 2), ("sin\u00a0x", 4), ("x\u00a0+\t", 4),
        )
        for src, pos in cases:
            with pytest.raises(ParseError) as exc:
                parse(src)
            assert exc.value.position == pos

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")

    # (opening text, closing text, offset of the opening token in the opening text)
    @pytest.mark.parametrize(
        "open_, close, at", [("(", ")", 0), ("sin(", ")", 0), ("-", "", 0), ("0.5^", "", 3)]
    )
    def test_nesting_bound(self, open_, close, at):
        n = MAX_NESTING
        assert np.isfinite(ev(open_ * n + "0.5" + close * n))
        with pytest.raises(ParseError) as exc:
            parse(open_ * (n + 1) + "0.5" + close * (n + 1))
        assert exc.value.position == n * len(open_) + at

    @pytest.mark.parametrize(
        "src", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"], ids=["parens", "minuses"]
    )
    def test_deep_nesting_is_a_parse_error(self, src, capsys):
        with pytest.raises(ParseError):
            parse(src)
        assert cli.main(["approx", f"--expr={src}"]) == cli.ERR_PARSE

    def test_long_chains_fold_without_depth(self):
        x = np.linspace(-1, 1, 5)
        assert ev("+".join(["x"] * 5000), x) == pytest.approx(5000 * x)
        assert ev("*".join(["x"] * 5000) + "/x", 1.0) == 1.0
        assert ev("-".join(["1"] * 5000)) == -4998.0

    @pytest.mark.parametrize("terms", [400, 5000])
    def test_long_sum_builds(self, terms, capsys):
        src = "+".join(["x"] * terms)
        assert cli.main(["approx", "--expr", src, "--tol", "1e-8"]) == cli.OK


class TestCatalog:
    def test_all_entries_parse_and_are_finite(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (3, 20))
        for name in catalog.CATALOG:
            fn = catalog.get(name)
            vals = np.asarray(fn(*pts), dtype=float)
            assert np.all(np.isfinite(vals)), name

    def test_known_values(self):
        runge = catalog.get("runge3")
        assert runge(0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert runge(1.0, 0.0, 0.0) == pytest.approx(1.0 / 26.0)
        spike = catalog.get("spike")
        assert spike(0.0, 0.0, 0.0) > spike(0.5, 0.5, 0.5)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.get("nope")
        with pytest.raises(KeyError):
            catalog.expression("nope")
        for eps in ("abc", "nan", "inf", "0"):
            with pytest.raises(KeyError):
                catalog.expression(f"shifted-inv({eps})")

    def test_shifted_inv(self):
        fn = catalog.shifted_inv(0.1)
        assert fn(0.0, 0.0, 0.0) == pytest.approx(1.0 / 3.1)
        assert fn(-1.0, -1.0, -1.0) == pytest.approx(1.0 / 0.1)

    def test_expression_matches_callable(self):
        rng = np.random.default_rng(1)
        x, y, z = rng.uniform(-1, 1, (3, 30))
        assert set(NUMPY_FORMS) == set(catalog.CATALOG)
        for name, form in NUMPY_FORMS.items():
            np.testing.assert_allclose(
                catalog.get(name)(x, y, z), form(x, y, z), rtol=1e-14, atol=1e-14, err_msg=name
            )
            # scalar arguments, as a non-vectorized build passes them
            for point in zip(x[:3], y[:3], z[:3]):
                expect = pytest.approx(form(*point), rel=1e-14, abs=1e-14)
                assert catalog.get(name)(*point) == expect
