import itertools
import math

import numpy as np
import pytest

from susyqm.catalog import CATALOG_NAMES, sip_lookup, sip_spectrum
from susyqm.swkb import (
    WKB_APPLICABLE,
    Mode,
    QuantizationProblem,
    QuantizeError,
    _brentq,
    action_integral,
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
    rows = exactness_audit([sip_lookup("shifted_oscillator")])
    swkb_rows = [r for r in rows if r.mode == "swkb"]
    assert [r.n for r in swkb_rows] == [0, 1, 2, 3, 4, 5]
    assert all(r.exact for r in swkb_rows)


def test_audit_rows_exact_to_roundoff():
    # much tighter than the 1e-7 gate of AuditRow.exact
    rows = exactness_audit([sip_lookup(n) for n in CATALOG_NAMES])
    assert {r.mode for r in rows} == {"swkb", "wkb"}
    for r in rows:
        assert r.error <= 1e-12 * max(1.0, abs(r.e_exact)), (r.entry, r.mode, r.n, r.error)


def test_level_above_continuum_raises():
    entry = sip_lookup("morse")  # 3 bound states
    prob = problem_for_entry(entry, Mode.SWKB_V1)
    with pytest.raises(QuantizeError):
        quantize(prob, 10)


def test_the_window_grows_at_an_open_end_only_for_a_level_it_cannot_hold():
    # W^2 at the far end r = 143.7 of this coulomb box is 0.02136, below E_4 = 0.02271
    entry = sip_lookup("coulomb", e2=1.392043556789436, l=3)
    spec, _ = sip_spectrum(entry, 4)
    lo, hi = problem_for_entry(entry, Mode.SWKB_V1).window
    prob = problem_for_entry(entry, Mode.SWKB_V1, e_top=spec[-1])
    assert prob.window == (lo, 2 * hi - lo)  # the wall end stays, the open end moves once
    for name, mode in itertools.product(CATALOG_NAMES, Mode):
        default = sip_lookup(name)
        top = sip_spectrum(default, 5)[0][-1]
        assert problem_for_entry(default, mode, e_top=top).window == problem_for_entry(default, mode).window


def gap_at(name, energy):
    """E - W^2 of a catalog entry's SWKB problem and a scan cell holding one root."""
    prob = problem_for_entry(sip_lookup(name), Mode.SWKB_V1)
    xs, u = prob.scan
    i = int(np.flatnonzero(np.diff(np.sign(energy - u)))[0])
    return (lambda x: energy - float(prob.well(x))), xs[i], xs[i + 1]


def morse_action(e):
    """S(E) - 2 pi of the default morse well, whose SWKB E_1 = 5."""
    prob = problem_for_entry(sip_lookup("morse"), Mode.SWKB_V1)
    return action_integral(prob, e) - prob.target(1)


@pytest.mark.parametrize(
    "f, a, b, xtol",
    [
        (lambda x: x**3 - 2.0 * x - 5.0, 1.0, 4.0, 1e-14),
        (lambda x: (x - 0.7) * (x + 2.0) ** 2, -1.0, 3.3, 1e-13),
        (lambda x: x - 2.5, 0.0, 2.5, 1e-14),  # the root is the bracket's upper end
        (lambda x: math.tanh(40.0 * (x - 0.3)), -3.0, 4.0, 1e-14),  # flat tails
        (lambda x: math.tanh(40.0 * (x - 0.3)), -3.0, 4.0, 1e-13),
        (*gap_at("morse", 3.3), 1e-14),
        (*gap_at("coulomb", 0.2), 1e-14),
        (morse_action, 0.0, 6.0, 1e-13),
    ],
    ids=[
        "cubic", "cubic-2", "root-at-end", "tanh-14", "tanh-13", "morse-gap", "coulomb-gap",
        "morse-action",
    ],
)
def test_brentq_port_matches_scipy_bit_for_bit(f, a, b, xtol):
    from scipy.optimize import brentq

    root = _brentq(f, a, b, xtol=xtol)
    assert root == brentq(f, a, b, xtol=xtol)
    assert isinstance(root, float)


def test_ports_match_scipy_on_random_brackets():
    # looser tolerances and many brackets reach the branches the fixed cases above do not
    from scipy.optimize import brentq

    rng = np.random.default_rng(5)
    roots = [lambda x: math.cos(x) - x, lambda x: math.exp(x) - 3.0, lambda x: x**3 - x - 1.0,
             lambda x: math.tanh(50.0 * (x - 0.3))]
    for f in roots:
        for a, b in zip(rng.uniform(-3.0, 0.0, 40), rng.uniform(1.5, 4.0, 40)):
            for xtol in (1e-8, 2e-12, 1e-14):
                assert _brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)


def test_brentq_port_raises_on_a_same_sign_bracket():
    with pytest.raises(QuantizeError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14)
    with pytest.raises(QuantizeError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, xtol=1e-14)
    with pytest.raises(QuantizeError, match="converge"):
        _brentq(lambda x: math.tanh(40.0 * (x - 0.3)), -3.0, 4.0, xtol=1e-14, maxiter=3)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_swkb_ground_level_is_zero_to_roundoff(name):
    # E0 = W(x0)^2 at the zero x0 of W vanishes to roundoff
    assert abs(quantize(problem_for_entry(sip_lookup(name), Mode.SWKB_V1), 0)) <= 1e-20


def broken_problem():
    # W = x^2 - x/2 + 0.3 > 0 keeps one sign: broken SUSY, no zero for E0 to sit at
    return QuantizationProblem(
        mode=Mode.SWKB_V1, profile=lambda x: np.asarray(x, float) ** 2 - 0.5 * x + 0.3, window=(-3.0, 3.0)
    )


def test_ground_level_of_broken_susy_raises():
    with pytest.raises(QuantizeError, match="W to change sign"):
        quantize(broken_problem(), 0)
    assert quantize(broken_problem(), 1) > 0.0  # the levels above keep their rule


def test_ground_check_reports_broken_susy_as_a_failure(monkeypatch):
    from susyqm import selfcheck

    monkeypatch.setattr(selfcheck, "problem_for_entry", lambda entry, mode: broken_problem())
    result = selfcheck.check_swkb_ground()
    assert not result.passed
    assert "W to change sign" in result.detail


def test_turning_point_search_evaluates_only_inside_its_cell():
    # the scan's values at the cell ends seed Brent's method, so no scan node is evaluated again
    scalar_calls = []

    def profile(x):
        x = np.asarray(x, float)
        if x.ndim == 0:
            scalar_calls.append(float(x))
        return x

    prob = QuantizationProblem(mode=Mode.SWKB_V1, profile=profile, window=(-12.0, 12.0))
    xs, _ = prob.scan
    a, b = turning_points(prob, 4.0)
    assert (a, b) == pytest.approx((-2.0, 2.0), abs=1e-12)
    assert scalar_calls and not set(scalar_calls) & set(xs.tolist())


def levels_on_fresh_problems(monkeypatch, entry, mode, n_max):
    """Each level on its own new problem, every Brent search by scipy's brentq from scratch.

    scipy evaluates both bracket ends itself, so nothing is shared between
    levels or taken from the scan: the reference the shared actions and the
    seeded turning points must reproduce bit for bit. A level that raises
    QuantizeError reads None.
    """
    from scipy.optimize import brentq

    from susyqm import swkb

    with monkeypatch.context() as m:
        m.setattr(swkb, "_brentq", lambda f, a, b, xtol, ends=None: brentq(f, a, b, xtol=xtol))
        return [level_or_none(problem_for_entry(entry, mode), n) for n in range(n_max + 1)]


def level_or_none(prob, n):
    try:
        return quantize(prob, n)
    except QuantizeError:
        return None


def test_catalog_audit_shares_actions_and_changes_no_level(monkeypatch):
    from susyqm import swkb

    integrals = []
    integrate = swkb.action_integral
    monkeypatch.setattr(swkb, "action_integral", lambda *args: integrals.append(1) or integrate(*args))
    entries = {name: sip_lookup(name) for name in CATALOG_NAMES}
    rows = exactness_audit(list(entries.values()))
    # one S(E) per distinct energy of each problem: the bracket ends shared by n = 1...5 once
    assert len(integrals) == 251
    monkeypatch.undo()
    for (name, mode), group in itertools.groupby(rows, key=lambda r: (r.entry, r.mode)):
        group = list(group)
        mode = Mode.SWKB_V1 if mode == "swkb" else Mode.WKB
        reference = levels_on_fresh_problems(monkeypatch, entries[name], mode, len(group) - 1)
        assert [r.e_semiclassical for r in group] == reference, (name, mode)


def test_seeded_draws_share_actions_and_change_no_level(monkeypatch):
    from susyqm.selfcheck import _random_params

    rng = np.random.default_rng(16)
    for name in CATALOG_NAMES:
        modes = [Mode.SWKB_V1] + ([Mode.WKB] if name in WKB_APPLICABLE else [])
        for _ in range(3):
            entry = sip_lookup(name, check_residual=False, **_random_params(name, rng))
            for mode in modes:
                prob = problem_for_entry(entry, mode)
                shared = [level_or_none(prob, n) for n in range(6)]
                assert shared[0] is not None
                assert shared == levels_on_fresh_problems(monkeypatch, entry, mode, 5), (name, mode)
