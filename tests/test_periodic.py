import math

import numpy as np
import pytest
from scipy.optimize import brentq

from susyqm import periodic
from susyqm.core import Superpotential
from susyqm.eigensolver import SolverError
from susyqm.periodic import (
    BandEdge,
    LameSpec,
    PeriodicError,
    band_edge_states,
    classify_pair,
    hill_discriminant,
    lame_band_edges,
    lame_partner,
    lame_potential,
    numeric_band_edges,
)
from susyqm.special import elliptic_K, jacobi_sn_cn_dn


@pytest.mark.parametrize(
    "w_fn, kind, shift",
    [
        # sin(x + pi) = -sin(x): the partner is the half-period translate
        (np.sin, "translation", math.pi),
        # an even W: the partner is the mirror image
        (lambda x: np.cos(x) + np.cos(2 * x), "reflection", 0.0),
    ],
    ids=["sine", "even"],
)
def test_classify_pair_self_isospectral(w_fn, kind, shift):
    w = Superpotential(w_fn)
    assert classify_pair(w.v1, w.v2, 2 * math.pi) == (kind, shift)


@pytest.mark.parametrize(
    "kind, fraction", [("translation", 0.25), ("reflection", 0.5), ("neither", None)]
)
def test_check_lame_one_needs_the_half_period_translation(monkeypatch, kind, fraction):
    from susyqm import selfcheck

    def classified(v1, v2, period):
        return kind, None if fraction is None else fraction * period

    monkeypatch.setattr(selfcheck, "classify_pair", classified)
    assert not selfcheck.check_lame_one().passed


def test_classify_pair_translation():
    w = Superpotential(np.sin)
    kind, shift = classify_pair(w.v1, w.v2, 2 * math.pi)
    assert kind == "translation"
    assert shift == pytest.approx(math.pi, abs=0.01)


def test_lame_one_edges():
    m = 0.5
    spec = LameSpec(1, m)
    edges = lame_band_edges(spec)
    assert [e.energy for e in edges] == pytest.approx([m, 1.0, 1.0 + m])
    assert [e.period_tag for e in edges] == ["L", "2L", "2L"]
    assert [e.nodes_per_period for e in edges] == [0, 1, 1]


def test_lame_one_numeric():
    m = 0.4
    spec = LameSpec(1, m)
    numeric = numeric_band_edges(lame_potential(spec), spec.period, 3, n_points=1401)
    closed = lame_band_edges(spec)
    for a, b in zip(numeric, closed):
        assert a.energy == pytest.approx(b.energy, abs=1e-7)
        assert a.period_tag == b.period_tag
        assert a.nodes_per_period == b.nodes_per_period


def test_lame_two_edges_and_partner(monkeypatch):
    m = 0.5
    spec = LameSpec(2, m)
    edges = lame_band_edges(spec)
    assert [e.energy for e in edges] == pytest.approx(textbook_edges(2, m))

    v1, w, v2 = lame_partner(spec)
    x = np.linspace(0.0, spec.period, 200, endpoint=False)
    # the pair generated by the a=2 ground state is genuinely new: neither a
    # translation nor a reflection of the original well
    monkeypatch.setattr(periodic, "_N_SHIFTS", 400)
    kind, _ = classify_pair(v1, v2, spec.period)
    assert kind == "neither"
    # but it is isospectral: compare the lowest band edges numerically
    e1 = [e.energy for e in numeric_band_edges(v1, spec.period, 3, n_points=1201)]
    e2 = [e.energy for e in numeric_band_edges(v2, spec.period, 3, n_points=1201)]
    assert e1 == pytest.approx(e2, abs=1e-5)


def test_lame_partner_zero_mode():
    for a in (2, 3):
        spec = LameSpec(a, 0.5)
        v1, w, v2 = lame_partner(spec)
        x = np.linspace(0.0, spec.period, 100, endpoint=False)
        psi = np.asarray(v1.psi0(x), dtype=float)
        assert np.all(psi > 0), a  # nodeless
        # psi0 solves -psi'' + V1 psi = 0: check with a finite-difference stencil
        h = 1e-5
        lap = (np.asarray(v1.psi0(x + h)) - 2 * psi + np.asarray(v1.psi0(x - h))) / h**2
        resid = -lap + np.asarray(v1(x)) * psi
        assert np.max(np.abs(resid)) < 1e-4, a


def textbook_edges(a, m):
    """The a = 1 and a = 2 Lame edges (Arscott 1964, ch. IX; Whittaker & Watson sec. 23.4)."""
    if a == 1:
        return [m, 1.0, 1.0 + m]
    d = math.sqrt(1.0 - m + m * m)
    return [2 + 2 * m - 2 * d, 1 + m, 1 + 4 * m, 4 + m, 2 + 2 * m + 2 * d]


@pytest.mark.parametrize("m", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("a", [1, 2])
def test_lame_band_edges_are_the_textbook_formulas(a, m):
    edges = lame_band_edges(LameSpec(a, m))
    assert len(edges) == 2 * a + 1
    for edge, exact in zip(edges, textbook_edges(a, m)):
        assert abs(edge.energy - exact) <= 1e-15


@pytest.mark.parametrize("a", range(3, 9))
def test_lame_band_edges_of_higher_orders_match_the_hill_solve(a):
    for m in (0.3, 0.5, 0.8):
        spec = LameSpec(a, m)
        closed = lame_band_edges(spec)
        numeric = numeric_band_edges(lame_potential(spec), spec.period, 2 * a + 1, n_points=1601)
        assert len(closed) == 2 * a + 1
        for edge, exact in zip(numeric, closed):
            assert abs(edge.energy - exact.energy) <= 1e-11 * abs(exact.energy), (m, edge)
            assert (edge.period_tag, edge.nodes_per_period) == (exact.period_tag, exact.nodes_per_period)


@pytest.mark.parametrize("a, kind", [(1, "translation"), (2, "neither"), (3, "neither"), (4, "neither")])
def test_lame_partners_are_isospectral(a, kind):
    spec = LameSpec(a, 0.5)
    v1, _, v2 = lame_partner(spec)
    e1 = numeric_band_edges(v1, spec.period, 2 * a + 1, n_points=801)
    e2 = numeric_band_edges(v2, spec.period, 2 * a + 1, n_points=801)
    assert e1[0].energy == pytest.approx(0.0, abs=1e-12)  # V1 is the well shifted to a zero ground edge
    assert max(abs(x.energy - y.energy) for x, y in zip(e1, e2)) <= 1e-10
    label, shift = classify_pair(v1, v2, spec.period)
    assert label == kind
    if kind == "translation":  # W(x + L/2) = -W(x) for a = 1
        assert shift == pytest.approx(spec.period / 2, abs=1e-12)


def test_band_edge_states_node_counts():
    spec = LameSpec(1, 0.5)
    states = band_edge_states(lame_potential(spec), spec.period, 3, n_points=1201)
    for edge, pair in states:
        assert edge.nodes_per_period in (0, 1)


@pytest.mark.parametrize("m", [0.3, 0.5, 0.8])
def test_band_edge_states_have_a_fixed_sign(m):
    # Lame a = 1 edges E = m, 1, 1 + m belong to dn, cn, sn; the nodeless dn edge is positive
    spec = LameSpec(1, m)
    states = band_edge_states(lame_potential(spec), spec.period, 3, n_points=801)
    grid = states[0][1].psi.grid
    sn, cn, dn = jacobi_sn_cn_dn(grid.points, m)
    assert np.all(states[0][1].psi.values > 0)
    for (_, pair), exact in zip(states, (dn, cn, sn)):
        psi = pair.psi.values
        assert np.allclose(psi / np.max(np.abs(psi)), exact / np.max(np.abs(exact)), atol=1e-8)


@pytest.mark.parametrize("m", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("a", [1, 2])
def test_lame_edges_states_and_nodes_match_closed_form(a, m):
    spec = LameSpec(a, m)
    states = band_edge_states(lame_potential(spec), spec.period, 2 * a + 1, n_points=801)
    closed = lame_band_edges(spec)
    assert len(states) == len(closed)
    for (edge, pair), exact in zip(states, closed):
        # eigh alone is off by about 1e-12 here, eps times the Hill matrix's kinetic diagonal
        assert abs(edge.energy - exact.energy) <= 5e-14 * max(1.0, exact.energy)
        assert edge.period_tag == exact.period_tag
        assert pair.nodes == edge.nodes_per_period == exact.nodes_per_period


@pytest.mark.parametrize("m", [0.3, 0.5, 0.8])
def test_lame_partner_edges_are_hill_discriminant_roots(m):
    # the Magnus-4 propagator is an independent oracle: D(E) = 2 at L edges, -2 at 2L edges
    spec = LameSpec(2, m)
    _, _, v2 = lame_partner(spec)
    for edge in numeric_band_edges(v2, spec.period, 5, n_points=801):
        target = 2.0 if edge.period_tag == "L" else -2.0
        assert hill_discriminant(v2, spec.period, edge.energy) == pytest.approx(target, abs=1e-5)


def kronig_penney(x):
    return np.where(np.mod(x, 2.0) < 1.0, 0.0, 3.0)


def kronig_penney_discriminant(e):
    """tr(M_b M_a) = 2 cos(kL) for V = 0 on [0, 1) and 3 on [1, 2)."""
    ka, kb = np.sqrt(e + 0j), np.sqrt(e - 3.0 + 0j)
    return (2 * np.cos(ka) * np.cos(kb) - (ka / kb + kb / ka) * np.sin(ka) * np.sin(kb)).real


def test_rough_potential_converges_and_warns():
    # a step has harmonics ~ 1/j: the mode cap binds and a RuntimeWarning says so
    scan = np.linspace(0.01, 20.0, 4000)
    roots = []
    for target, tag in ((2.0, "L"), (-2.0, "2L")):
        def g(e):
            return kronig_penney_discriminant(e) - target

        f = g(scan)
        for i in np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:])):
            roots.append((brentq(g, scan[i], scan[i + 1], xtol=1e-14), tag))
    roots.sort()
    with pytest.warns(RuntimeWarning, match="converge only algebraically"):
        edges = numeric_band_edges(kronig_penney, 2.0, 5, n_points=1201)
    assert len(edges) == 5
    for edge, (e, tag) in zip(edges, roots):
        assert edge.energy == pytest.approx(e, abs=1e-5)
        assert edge.period_tag == tag


def test_numeric_band_edges_free_particle():
    # V = 0, period 2 pi: periodic-sector edges are k^2 for integer k
    edges = numeric_band_edges(np.zeros_like, 2 * math.pi, 5, n_points=801)
    lv = [e.energy for e in edges if e.period_tag == "L"]
    assert lv[0] == pytest.approx(0.0, abs=1e-8)
    assert lv[1] == pytest.approx(1.0, abs=1e-6)
    assert lv[2] == pytest.approx(1.0, abs=1e-6)


def test_numeric_band_edges_antiperiodic_sector():
    edges = numeric_band_edges(np.zeros_like, 2 * math.pi, 5, n_points=801)
    lv = [e.energy for e in edges if e.period_tag == "2L"]
    assert lv[0] == pytest.approx(0.25, abs=1e-6)
    assert lv[1] == pytest.approx(0.25, abs=1e-6)


def test_numeric_band_edges_rejects_nonperiodic_samples():
    with pytest.raises(SolverError):
        numeric_band_edges(lambda x: x, 1.0, 2, n_points=101)


def test_numeric_band_edges_rejects_a_grid_too_small_for_count():
    # 4 samples resolve no harmonic, which leaves the antiperiodic sector empty
    with pytest.warns(RuntimeWarning), pytest.raises(SolverError, match="count=3"):
        numeric_band_edges(np.zeros_like, 1.0, 3, n_points=4)


def test_hill_discriminant_at_band_edges():
    spec = LameSpec(1, 0.6)
    for edge in lame_band_edges(spec):
        d = hill_discriminant(lame_potential(spec), spec.period, edge.energy)
        target = 2.0 if edge.period_tag == "L" else -2.0
        assert d == pytest.approx(target, abs=1e-5)


def test_lame_spec_validation():
    with pytest.raises(PeriodicError):
        LameSpec(1, 1.5)
    with pytest.raises(PeriodicError):
        LameSpec(0, 0.5)
    # p = 8.75 is no Lame well
    with pytest.raises(PeriodicError, match="order a must be a positive integer"):
        LameSpec(2.5, 0.5)


def classify_by_rolls(v1, v2, period, n_shifts=1000, tol=1e-8):
    """classify_pair by the max norm of every one of the 2 n_shifts rolls: the reference."""
    x = np.linspace(0.0, period, n_shifts, endpoint=False)
    t1 = np.asarray(v1(x), dtype=float)
    t2 = np.asarray(v2(x), dtype=float)
    t1r = np.roll(t1[::-1], 1)
    scale = max(1.0, float(np.max(np.abs(t2))))
    for kind, base, step in (("translation", t1, -1), ("reflection", t1r, 1)):
        dev = [float(np.max(np.abs(np.roll(base, step * j) - t2))) for j in range(n_shifts)]
        j = int(np.argmin(dev))
        if dev[j] <= tol * scale:
            return kind, j * period / n_shifts
    return "neither", None


def pair_cases():
    two_pi = 2 * math.pi
    spec = LameSpec(2, 0.5)
    v1, _, v2 = lame_partner(spec)

    def skew(x):  # neither even about any point nor a translate of its reflection
        return np.exp(np.sin(x) + 0.5 * np.sin(2 * x))

    def even(x):
        return np.cos(x) + 0.5 * np.cos(2 * x)

    def half_period(x):  # period L/2: the shifts s and s + L/2 fit exactly
        return np.exp(np.sin(2 * x))

    return {
        "lame-partner": (v1, v2, spec.period),
        "translation": (skew, lambda x: skew(x + 0.35 * two_pi), two_pi),
        "translation-large": (lambda x: 1e6 * skew(x), lambda x: 1e6 * skew(x + 0.5 * two_pi), two_pi),
        "reflection": (skew, lambda x: skew(0.3 * two_pi - x), two_pi),
        "both": (even, lambda x: even(x + 0.1 * two_pi), two_pi),
        "half-period": (half_period, lambda x: half_period(x + 0.2 * two_pi), two_pi),
        "neither": (np.sin, lambda x: np.sin(x) ** 3, two_pi),
        "near-constant": (lambda x: 1 + 1e-10 * np.sin(x), lambda x: 1 + 1e-10 * np.sin(x + 1.0), two_pi),
        # every shift is within tol, but no misfit is zero to rounding: the tol term admits them
        "tiny-off-grid": (lambda x: 1e-9 * np.sin(x), lambda x: 1e-9 * np.sin(x + 0.123456), two_pi),
    }


@pytest.mark.parametrize("n_shifts", [400, 1000])
@pytest.mark.parametrize("case", list(pair_cases()))
def test_classify_pair_matches_every_roll(monkeypatch, case, n_shifts):
    v1, v2, period = pair_cases()[case]
    monkeypatch.setattr(periodic, "_N_SHIFTS", n_shifts)
    kind, shift = classify_pair(v1, v2, period)
    assert (kind, shift) == classify_by_rolls(v1, v2, period, n_shifts=n_shifts)
    expected = {"lame-partner": "neither", "neither": "neither", "reflection": "reflection"}
    assert kind == expected.get(case, "translation")


LAME_EDGE_CASES = [(a, m) for a in (1, 2) for m in (0.3, 0.5, 0.8)] + [("partner", 0.5)]


@pytest.mark.parametrize("a, m", LAME_EDGE_CASES)
def test_numeric_band_edges_are_band_edge_states_without_the_states(monkeypatch, a, m):

    if a == "partner":
        spec = LameSpec(2, m)
        v, count = lame_partner(spec)[2], 5
    else:
        spec = LameSpec(a, m)
        v, count = lame_potential(spec), 2 * a + 1
    calls = []
    synthesize = periodic._bloch_state
    monkeypatch.setattr(periodic, "_bloch_state", lambda *args: calls.append(1) or synthesize(*args))
    edges = numeric_band_edges(v, spec.period, count, n_points=801)
    assert calls == []  # no eigenvector is built for the energies alone
    states = band_edge_states(v, spec.period, count, n_points=801)
    assert len(calls) == count
    assert edges == [edge for edge, _ in states]
    assert [pair.energy for _, pair in states] == [edge.energy for edge in edges]


@pytest.mark.parametrize("solve", [numeric_band_edges, band_edge_states])
def test_band_edges_too_small_grid_and_rough_warning_reach_every_caller(solve):
    with pytest.warns(RuntimeWarning) as record, pytest.raises(SolverError, match="count=3"):
        solve(np.zeros_like, 1.0, 3, n_points=4)
    assert record[0].filename == __file__  # the warning names the caller's line
    with pytest.warns(RuntimeWarning, match="converge only algebraically") as record:
        solve(kronig_penney, 2.0, 5, n_points=1201)
    assert record[0].filename == __file__


def test_lame_partner_evaluates_sn_cn_dn_once_per_call(monkeypatch):

    spec = LameSpec(2, 0.5)
    v1, w, v2 = lame_partner(spec)
    x = np.linspace(-3.0 * spec.period, 3.0 * spec.period, 1000)
    assert np.array_equal(v2(x), 2 * w(x) ** 2 - v1(x))
    calls = []
    sn_cn_dn = periodic.jacobi_sn_cn_dn
    monkeypatch.setattr(periodic, "jacobi_sn_cn_dn", lambda *args: calls.append(1) or sn_cn_dn(*args))
    for fn in (v1, w, v2, v1.psi0):
        calls.clear()
        fn(x)
        assert len(calls) == 1, fn
