import math

import numpy as np
import pytest

from susyqm.expressions import ExpressionError, compile_expression


def test_basic_arithmetic():
    f = compile_expression("2*x + 1")
    assert f(np.array([0.0, 1.0])) == pytest.approx([1.0, 3.0])


def test_caret_power():
    f = compile_expression("x^2 - 1")
    assert f(np.array([3.0]))[0] == pytest.approx(8.0)


def test_parameters_and_constants():
    f = compile_expression("A*tanh(x) + pi", {"A": 2.0})
    assert f(np.array([0.0]))[0] == pytest.approx(math.pi)


def test_function_whitelist():
    f = compile_expression("sech(x)^2")
    assert f(np.array([0.0]))[0] == pytest.approx(1.0)


def test_jacobi_two_arg():
    f = compile_expression("sn(x, 0.5)")
    from susyqm.special import jacobi_sn_cn_dn

    x = np.linspace(0, 2, 11)
    assert np.allclose(f(x), jacobi_sn_cn_dn(x, 0.5)[0])


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("y + 1")


def test_attribute_access_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("x.__class__")


def test_call_of_non_whitelisted_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("__import__('os')")


def test_wrong_arity_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("sin(x, 2)")
    with pytest.raises(ExpressionError):
        compile_expression("sn(x)")


def test_syntax_error_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("2*(x")


def test_constant_expression_broadcasts():
    f = compile_expression("3")
    out = f(np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert np.all(out == 3.0)


def test_elliptic_parameter_depending_on_x_rejected():
    with pytest.raises(ExpressionError, match="must not depend on x"):
        compile_expression("sn(x, x)")


def test_deep_nesting_rejected():
    with pytest.raises(ExpressionError, match="nested too deeply"):
        compile_expression("-" * 5000 + "x")
    with pytest.raises(ExpressionError, match="nested too deeply"):
        compile_expression("-" * 1000 + "x")  # parses, but overflows the evaluator's stack


def test_oversized_integer_literal_rejected():
    with pytest.raises(ExpressionError, match="too large"):
        compile_expression("1" + "0" * 400 + "*x")
