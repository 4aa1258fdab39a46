"""Tests for the expression parser/evaluator and the function catalog."""

import math

import numpy as np
import pytest

from tuckercheb import catalog, funcexpr
from tuckercheb.funcexpr import ParseError, as_function, eval_expr, parse


def ev(src, x=0.0, y=0.0, z=0.0):
    return eval_expr(parse(src), x, y, z)


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

    def test_vectorized(self):
        f = as_function(parse("x*y+cos(z)"))
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(f(x, x, x), x * x + np.cos(x), atol=1e-15)

    def test_parse_errors_carry_position(self):
        for src, pos in (("1+", 2), ("foo(x)", 0), ("sin x", 4), ("1 $ 2", 2)):
            with pytest.raises(ParseError) as exc:
                parse(src)
            assert exc.value.position == pos

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x")


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
        for name in catalog.CATALOG:
            fn = catalog.get(name)
            tree = funcexpr.parse(catalog.expression(name))
            np.testing.assert_allclose(
                np.asarray(fn(x, y, z), dtype=float),
                np.asarray(funcexpr.eval_expr(tree, x, y, z), dtype=float),
                atol=1e-14,
                err_msg=name,
            )
