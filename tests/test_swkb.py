import math

import numpy as np
import pytest

from susyqm.catalog import CATALOG_NAMES, sip_lookup, sip_spectrum
from susyqm.swkb import (
    Mode,
    QuantizationProblem,
    QuantizeError,
    action_integral,
    boundary_phase,
    exactness_audit,
    problem_for_entry,
    quantize,
    turning_points,
)


def osc_problem(mode=Mode.SWKB_V1):
    # W = x: W^2 = x^2, V1 = x^2 - 1
    return QuantizationProblem(
        mode=mode, profile=lambda x: np.asarray(x, float), window=(-12.0, 12.0)
    )


def test_turning_points_symmetric():
    a, b = turning_points(osc_problem(), 4.0)
    assert a == pytest.approx(-2.0, abs=1e-10)
    assert b == pytest.approx(2.0, abs=1e-10)


def test_turning_point_on_a_scan_node_counted_once():
    # h = 31.25 / 4000 = 1/128, so x = -1 and x = 1 are scan nodes where W^2 = E exactly
    prob = QuantizationProblem(
        mode=Mode.SWKB_V1, profile=lambda x: np.asarray(x, float), window=(-15.625, 15.625)
    )
    xs, _ = prob.scan
    assert xs[1872] == -1.0 and xs[2128] == 1.0
    assert turning_points(prob, 1.0) == (-1.0, 1.0)


def test_four_crossings_raise():
    # double well (x^2 - 1)^2 below its barrier top: four roots of E - V
    prob = QuantizationProblem(
        mode=Mode.WKB, profile=lambda x: (np.asarray(x, float) ** 2 - 1.0) ** 2, window=(-3.0, 3.0)
    )
    with pytest.raises(QuantizeError, match="found 4"):
        turning_points(prob, 0.5)


def test_action_integral_closed_form():
    # int sqrt(E - x^2) over the well = pi E / 2
    for e in (1.0, 3.7):
        assert action_integral(osc_problem(), e) == pytest.approx(
            0.5 * math.pi * e, rel=1e-12
        )


def test_quantize_swkb_oscillator():
    prob = osc_problem()
    for n in range(4):
        assert quantize(prob, n) == pytest.approx(2.0 * n, abs=1e-9)


def test_quantize_v2_convention():
    prob = osc_problem(Mode.SWKB_V2)
    # V2 spectrum starts one rung up: E_n^(2) = 2(n+1)
    for n in range(3):
        assert quantize(prob, n) == pytest.approx(2.0 * (n + 1), abs=1e-9)


def test_wkb_oscillator_exact():
    prob = QuantizationProblem(
        mode=Mode.WKB, profile=lambda x: np.asarray(x, float) ** 2 - 1.0, window=(-12.0, 12.0)
    )
    for n in range(3):
        assert quantize(prob, n) == pytest.approx(2.0 * n, abs=1e-9)


def test_boundary_phase_unbroken():
    # W changes sign across the well: the boundary term is exactly pi/2 * hbar
    prob = osc_problem()
    assert boundary_phase(prob, 4.0) == pytest.approx(0.5 * math.pi, abs=1e-9)


def test_boundary_phase_rejects_wkb():
    with pytest.raises(QuantizeError):
        boundary_phase(
            QuantizationProblem(Mode.WKB, lambda x: np.asarray(x, float) ** 2, (-5, 5)),
            1.0,
        )


def test_swkb_exact_for_morse_and_poschl_teller():
    for name in ("morse", "poschl_teller"):
        entry = sip_lookup(name)
        spec, _ = sip_spectrum(entry, 2)
        prob = problem_for_entry(entry, Mode.SWKB_V1)
        for n, e_exact in enumerate(spec):
            assert quantize(prob, n) == pytest.approx(e_exact, abs=1e-7), (name, n)


def test_wkb_not_exact_for_poschl_teller():
    entry = sip_lookup("poschl_teller")
    spec, _ = sip_spectrum(entry, 1)
    prob = problem_for_entry(entry, Mode.WKB)
    err = abs(quantize(prob, 1) - spec[1])
    assert err > 1e-3  # half-integer rule misses the exact level


def test_exactness_audit_rows():
    rows = exactness_audit([sip_lookup("shifted_oscillator")], n_max=2)
    swkb_rows = [r for r in rows if r.mode == "swkb"]
    assert len(swkb_rows) == 3
    assert all(r.exact for r in swkb_rows)


def test_audit_rows_exact_to_roundoff():
    # much tighter than the 1e-7 gate of AuditRow.exact
    rows = exactness_audit([sip_lookup(n) for n in CATALOG_NAMES], n_max=5)
    assert {r.mode for r in rows} == {"swkb", "wkb"}
    for r in rows:
        assert r.error <= 1e-12 * max(1.0, abs(r.e_exact)), (r.entry, r.mode, r.n, r.error)


def test_level_above_continuum_raises():
    entry = sip_lookup("morse")  # 3 bound states
    prob = problem_for_entry(entry, Mode.SWKB_V1)
    with pytest.raises(QuantizeError):
        quantize(prob, 10)
