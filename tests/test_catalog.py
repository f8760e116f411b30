import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from susyqm.catalog import (
    CATALOG_NAMES,
    CatalogError,
    hierarchy_potential,
    numeric_grid,
    numeric_levels,
    shape_invariance_residual,
    sip_eigenfunction,
    sip_lookup,
    sip_spectrum,
    well_hierarchy_potential,
)
from susyqm.grids import Grid, SampledFunction, integrate


def test_every_entry_is_shape_invariant():
    for name in CATALOG_NAMES:
        entry = sip_lookup(name)
        assert shape_invariance_residual(entry) < 1e-9, name


@pytest.mark.parametrize("name, step", [
    ("morse", lambda p: {**p, "A": p["A"] - 2.0 * p["alpha"]}),
    ("coulomb", lambda p: {**p, "l": p["l"] + 2.0}),
    ("shifted_oscillator", lambda p: {**p, "omega": 2.0 * p["omega"]}),
])
def test_a_wrong_step_breaks_the_remainder_sum(name, step):
    # sum_k R(a_k) follows the step's chain; E_n(a1) does not
    with pytest.raises(CatalogError, match="remainder sum"):
        sip_spectrum(replace(sip_lookup(name), step=step), 3)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_a_wrong_closed_form_breaks_shape_invariance(name):
    entry = sip_lookup(name)
    wrong = replace(entry, energy_closed=lambda n, p: 1.01 * entry.energy_closed(n, p))
    assert shape_invariance_residual(wrong) > 1e-9


def test_unknown_name():
    with pytest.raises(CatalogError):
        sip_lookup("not_a_well")


def test_oscillator_spectrum():
    entry = sip_lookup("shifted_oscillator")
    spec, truncated = sip_spectrum(entry, 4)
    assert not truncated
    assert spec == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0])


def test_coulomb_spectrum():
    # the Laguerre mesh has no box to truncate the high levels: absolute agreement
    entry = sip_lookup("coulomb")
    spec, _ = sip_spectrum(entry, 5)
    numeric = numeric_levels(entry, 6)
    assert [p.energy for p in numeric] == pytest.approx(spec, abs=1e-8)
    assert [p.nodes for p in numeric] == list(range(6))


def test_morse_truncation():
    entry = sip_lookup("morse")  # A=3, alpha=1: exactly 3 bound states
    assert entry.n_bound == 3
    spec, truncated = sip_spectrum(entry, 9)
    assert truncated and len(spec) == 3


def test_numeric_agreement_all_entries():
    # every entry on the spectral engine: absolute levels and node counts
    for name in CATALOG_NAMES:
        entry = sip_lookup(name)
        count = min(3, entry.n_bound or 3)
        spec, _ = sip_spectrum(entry, count - 1)
        numeric = numeric_levels(entry, count)
        for n, (e_closed, pair) in enumerate(zip(spec, numeric)):
            assert pair.nodes == n, name
            assert pair.energy == pytest.approx(e_closed, abs=1e-8), name



WHOLE_LINE = [name for name in CATALOG_NAMES if math.isinf(sip_lookup(name).domain[0])]


def test_whole_line_draws_of_ten_seeds_and_the_held_out_ones():
    # each open end of the sinh-mapped sine DVR reaches past the top level's
    # outer turning point until psi^2 has decayed by e^-36: no box cuts a
    # weakly bound top level off (26 of these draws miss 1e-5 on the box;
    # at a fixed reach of 3000, seed 50's scarf2 draw 1, n = 1, lying 1e-6
    # below lim V, misses by 5.4e-9 with an estimate of 5.6e-12)
    from susyqm.selfcheck import _random_params

    assert WHOLE_LINE == ["shifted_oscillator", "morse", "scarf2", "rosen_morse2"]
    checked = 0
    for seed in [*range(1, 11), 50, 901, 902, 903]:
        rng = np.random.default_rng(seed)
        draws = {name: [_random_params(name, rng) for _ in range(4)] for name in CATALOG_NAMES}
        for name in WHOLE_LINE:
            for params in draws[name]:
                entry = sip_lookup(name, check_residual=False, **params)
                count = 6 if entry.n_bound is None else min(entry.n_bound, 6)
                spec, _ = sip_spectrum(entry, count - 1)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    levels = numeric_levels(entry, count)
                for n, (pair, e_closed) in enumerate(zip(levels, spec)):
                    err = abs(pair.energy - e_closed)
                    assert err <= 1e-10 * max(1.0, abs(e_closed)), (seed, name, params, n)
                    assert err <= max(pair.error_estimate, 1e-12), (seed, name, params, n, err)
                    assert pair.nodes == n and pair.bound
                checked += 1
    assert checked == 14 * 16


def test_a_level_above_the_far_node_is_flagged_not_bound():
    # Morse A = 3, alpha = 1 has 3 bound states below lim V = 9; the fourth
    # level is discretized continuum, at or above V at the far node
    entry = sip_lookup("morse")
    spec, _ = sip_spectrum(entry, entry.n_bound)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        levels = numeric_levels(entry, entry.n_bound + 1)
    assert [p.bound for p in levels] == [True] * entry.n_bound + [False]
    assert levels[-1].energy >= entry.v1(np.array([3000.0]))[0]
    assert [p.energy for p in levels[:-1]] == pytest.approx(spec, abs=1e-8)
    messages = [str(w.message) for w in caught]
    assert messages == [f"state {entry.n_bound} is not below V = 9 at the far node: not bound"], messages


def test_a_symmetric_double_well_is_mapped_about_its_centre(monkeypatch):
    # V = 4 (x^2 - 4)^2 has its minima at +-2: mapped about the interval's
    # centre, not one minimum, the two tunnelling doublets settle at N = 256
    # (centred on the minimum at x = -2 they need N = 512)
    import susyqm.spectral as spectral

    basis = []
    levels = spectral._SineDVR.levels
    monkeypatch.setattr(
        spectral._SineDVR, "levels", lambda self, v, n, count: basis.append(n) or levels(self, v, n, count)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = spectral.spectral_bound_states(lambda x: 4.0 * (x * x - 4.0) ** 2, (-8.0, 8.0), 4, walls=(None, None))
    assert max(basis) == 256
    assert [p.nodes for p in pairs] == [0, 1, 2, 3]
    assert 0.0 < pairs[1].energy - pairs[0].energy < 1e-6 and 0.0 < pairs[3].energy - pairs[2].energy < 1e-4


def test_whole_line_wells_stop_at_n_128(monkeypatch):
    # the probe at N = 64 sizes each open end from the levels, so the doubling
    # from 64 settles at 128 (at a fixed reach of 3000 all but the oscillator need 256)
    import susyqm.spectral as spectral

    basis = []
    levels = spectral._SineDVR.levels
    monkeypatch.setattr(
        spectral._SineDVR, "levels", lambda self, v, n, count: basis.append(n) or levels(self, v, n, count)
    )
    for entry in [*(sip_lookup(name) for name in WHOLE_LINE), *(sip_lookup("sech2", B=b) for b in (1.0, 2.0, 3.0))]:
        basis.clear()
        count = min(3, entry.n_bound or 3)
        spec, _ = sip_spectrum(entry, count - 1)
        assert [p.energy for p in numeric_levels(entry, count)] == pytest.approx(spec, abs=1e-10)
        assert max(basis) <= 128, (entry.name, basis)


@pytest.mark.parametrize("b", [2.0, 3.0])
def test_sech2_ground_state_on_the_box_grid(b):
    # psi_0 = sech^B x / sqrt(int sech^2B), int sech^2B = sqrt(pi) Gamma(B) / Gamma(B + 1/2),
    # built by direct sums at s(x) on Grid(*box, 4001)
    entry = sip_lookup("sech2", B=b)
    ground = numeric_levels(entry, 1)[0].psi
    assert ground.grid == Grid(*entry.box, 4001)
    norm = math.sqrt(math.sqrt(math.pi) * math.gamma(b) / math.gamma(b + 0.5))
    assert np.max(np.abs(ground.values - np.cosh(ground.x) ** -b / norm)) <= 1e-8


ALL_ENTRIES = [*CATALOG_NAMES, "sech2"]


def test_spectral_dispatch_covers_every_entry(monkeypatch):
    import susyqm.spectral

    calls = []
    monkeypatch.setattr(
        susyqm.spectral, "spectral_bound_states", lambda v, box, count, walls, n_points: calls.append(walls)
    )
    for name in ALL_ENTRIES:
        entry = sip_lookup(name)
        numeric_levels(entry, 2)
        # a wall end carries the exponent s read off W, an end where the
        # domain goes on None (open), and a finite end with no wall False
        walls = calls.pop()
        for w, on, end in zip(walls, (entry.wall_lo, entry.wall_hi), entry.domain):
            if on:
                assert isinstance(w, float) and w > 0, name
            else:
                assert w is (None if math.isinf(end) else False), name
    assert len(ALL_ENTRIES) == 11


TWO_WALLS = ["scarf1", "rosen_morse1"]


def _ground_state_exponents(entry) -> list:
    """(wall, sense, s read off W) at each wall of the entry."""
    from susyqm.core import ground_state_exponent

    lo, hi = entry.box
    w = entry.superpotential().w
    ends = ((lo, 1.0, entry.wall_lo), (hi, -1.0, entry.wall_hi))
    return [(wall, sense, ground_state_exponent(w, wall, hi - lo, sense)) for wall, sense, on in ends if on]


@pytest.mark.parametrize("name", TWO_WALLS)
def test_two_wall_levels_on_seeded_draws(name):
    from susyqm.selfcheck import _random_params

    rng = np.random.default_rng(2026)
    for _ in range(12):  # non-Friedrichs draws included: W picks their extension
        entry = sip_lookup(name, check_residual=False, **_random_params(name, rng))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            levels = numeric_levels(entry, 6)
        messages = [str(w.message) for w in caught]
        if min(s for _, _, s in _ground_state_exponents(entry)) < 0.5:
            # the levels reach ~1e-9 and then drift with N (see the test below)
            assert all(m.startswith("levels still move by") for m in messages), messages
        else:
            assert not messages, messages
        spec, _ = sip_spectrum(entry, 5)
        for n, (pair, e_closed) in enumerate(zip(levels, spec)):
            assert pair.energy == pytest.approx(e_closed, abs=1e-8), (entry.params, n)
            assert pair.nodes == n


def test_two_wall_near_threshold_draw_stops_early(monkeypatch):
    # (A - B)/alpha = 0.517 at the upper wall: the wall exponent is near 1/2
    import susyqm.spectral as spectral

    sizes = []
    levels = spectral._JacobiMesh.levels
    monkeypatch.setattr(
        spectral._JacobiMesh, "levels", lambda self, v, n, count: sizes.append(n) or levels(self, v, n, count)
    )
    entry = sip_lookup("scarf1", A=2.447, B=1.97, alpha=0.923)
    spec, _ = sip_spectrum(entry, 5)
    for n, (pair, e_closed) in enumerate(zip(numeric_levels(entry, 6), spec)):
        assert pair.energy == pytest.approx(e_closed, abs=1e-8)
        assert pair.nodes == n
    assert max(sizes) <= 128


@pytest.mark.parametrize(
    "name, params",
    [
        ("scarf1", {"A": 1.236, "B": 0.876, "alpha": 1.122}),  # s = (A - B)/alpha = 0.32 at the upper wall
        ("poschl_teller", {"A": 2.0, "B": 2.4, "alpha": 1.0}),  # s = (B - A)/alpha = 0.4 at the lower wall
        ("scarf1", {"A": 2.0, "B": 1.6, "alpha": 1.0}),  # s = 0.4
        ("scarf1", {"A": 2.0, "B": 1.9, "alpha": 1.0}),  # s = 0.1
        ("poschl_teller", {"A": 3.0, "B": 3.1, "alpha": 1.0}),  # s = 0.1
    ],
)
def test_a_non_friedrichs_draw_matches_the_closed_form(name, params):
    # exp(-int W) ~ d^s with s < 1/2, the smaller root of V1 ~ s(s - 1)/d^2:
    # the closed form is the spectrum of the extension W selects, and the mesh
    # built on d^s solves that one
    entry = sip_lookup(name, **params)
    count = min(6, entry.n_bound or 6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        levels = numeric_levels(entry, count)
    spec, _ = sip_spectrum(entry, count - 1)
    for n, (pair, e_closed) in enumerate(zip(levels, spec)):
        assert pair.energy == pytest.approx(e_closed, abs=1e-8), n
        assert pair.nodes == n and pair.bound
    messages = [str(w.message) for w in caught]
    if params == {"A": 2.0, "B": 1.9, "alpha": 1.0}:
        # V1 = W^2 - W' cancels terms 10 times its size next to the wall, and
        # with psi^2 ~ d^0.2 the nodes there weigh in: the levels reach 1e-10
        # at N = 32 to 64 and then drift with N, which the engine reports
        assert all(m.startswith("levels still move by") for m in messages), messages
    else:
        assert not messages, messages


def test_the_rounding_floor_returns_the_better_of_the_two_solves():
    # scarf1 with s = 0.1 at the upper wall: the N = 32 and 64 solves are about
    # 1e-10 off, and the N = 128 one, where the change grows, 7e-9
    entry = sip_lookup("scarf1", A=2.0, B=1.9, alpha=1.0)
    spec, _ = sip_spectrum(entry, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        levels = numeric_levels(entry, 6)
    for pair, e_closed in zip(levels, spec):
        error = abs(pair.energy - e_closed)
        assert error <= 3e-10
        assert error / 10 <= pair.error_estimate <= 10 * error


@pytest.mark.parametrize("b", [1.4999, 1.49999])
def test_near_half_wall_exponent_error_and_estimate(b):
    # s = A - B = 0.5001 and 0.50001 at the upper wall: read off V, s carried
    # an error of dg/(2s - 1) that missed by 1.2e-8 and 1.2e-7 while the
    # estimate read 3e-11; read off W, the error stays at rounding
    entry = sip_lookup("scarf1", A=2.0, B=b, alpha=1.0)
    spec, _ = sip_spectrum(entry, 5)
    for n, (pair, e_closed) in enumerate(zip(numeric_levels(entry, 6), spec)):
        err = abs(pair.energy - e_closed)
        assert err <= 1e-9, (n, err)
        # within a decade, with 1e-11 (the rounding of levels up to 36) as the floor of both
        err, est = max(err, 1e-11), max(pair.error_estimate, 1e-11)
        assert est <= 10.0 * err and err <= 10.0 * est, (n, err, pair.error_estimate)


WALL_ENTRIES = [name for name in CATALOG_NAMES if sip_lookup(name).wall_lo or sip_lookup(name).wall_hi]


@pytest.mark.parametrize("name", WALL_ENTRIES)
def test_wall_exponent_from_w_agrees_with_v_above_one_half(name):
    from susyqm.selfcheck import _random_params
    from susyqm.core import wall_exponent
    from susyqm.spectral import spectral_bound_states

    rng = np.random.default_rng(7)
    entries = [sip_lookup(name)]
    entries += [sip_lookup(name, check_residual=False, **_random_params(name, rng)) for _ in range(4)]
    checked = 0
    for entry in entries:
        ends = _ground_state_exponents(entry)
        if min(s for _, _, s in ends) <= 0.5:
            continue  # a non-Friedrichs draw: V cannot tell its root
        length = entry.box[1] - entry.box[0]
        for wall, sense, s in ends:
            assert s == pytest.approx(wall_exponent(entry.v1, wall, length, sense), abs=1e-10), entry.params
        count = min(4, entry.n_bound or 4)
        by_w = numeric_levels(entry, count)
        by_v = spectral_bound_states(entry.v1, entry.box, count, walls=(entry.wall_lo, entry.wall_hi))
        for p, q in zip(by_w, by_v):
            assert p.energy == pytest.approx(q.energy, abs=1e-10 * max(1.0, abs(q.energy))), entry.params
        checked += 1
    assert checked >= 3


def test_eckart_level_next_to_the_threshold_is_bound():
    # the top level lies 1e-4 below lim V: a scale that resolves it only at N,
    # not at N/2, has not converged it, so the doubling goes on
    entry = sip_lookup("eckart", A=2.806391176701476, B=19.591337641304335, alpha=0.8073579197290356)
    spec, _ = sip_spectrum(entry, 5)
    levels = numeric_levels(entry, len(spec))
    assert len(spec) == 3
    for n, (pair, e_closed) in enumerate(zip(levels, spec)):
        assert pair.bound, n
        assert pair.energy == pytest.approx(e_closed, abs=1e-8), n


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_defaults_do_not_warn(name):
    entry = sip_lookup(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        numeric_levels(entry, min(3, entry.n_bound or 3))


def _tracks(estimate: float, err: float) -> bool:
    """Within two decades of each other, or both below 1e-12."""
    if estimate < 1e-12 and err < 1e-12:
        return True
    return estimate <= 100.0 * err and err <= 100.0 * estimate


# The estimate is the change of the level at the last doubling of the
# resolution, so it is the error of the coarser solve. On poschl_teller the
# engine stops at N = 64, where levels 1 and 2 are already at the rounding
# floor (2e-13 and 6e-13) while the N = 32 -> 64 change is 3e-11 and 7e-11.
ESTIMATE_TOO_HIGH = {("poschl_teller", 1), ("poschl_teller", 2)}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_error_estimate_tracks_the_true_error(name):
    entry = sip_lookup(name)
    count = min(3, entry.n_bound or 3)
    spec, _ = sip_spectrum(entry, count - 1)
    for n, (pair, e_closed) in enumerate(zip(numeric_levels(entry, count), spec)):
        err = abs(pair.energy - e_closed)
        if (name, n) in ESTIMATE_TOO_HIGH:
            # a known miss of the two-decade criterion: held as an upper bound
            # at most three decades high
            assert err < pair.error_estimate < 1e3 * max(err, 1e-12), (n, err, pair.error_estimate)
        else:
            assert _tracks(pair.error_estimate, err), (n, err, pair.error_estimate)


def test_eigenfunction_nodes_and_norm():
    entry = sip_lookup("shifted_oscillator")
    grid = Grid(-8.0, 8.0, 2001)
    for n in range(3):
        psi = sip_eigenfunction(entry, n, grid)
        assert integrate(psi.map(lambda v: v**2)) == pytest.approx(1.0, rel=1e-8)
        interior = psi.values[np.abs(psi.values) > 1e-6 * np.max(np.abs(psi.values))]
        flips = np.sum(np.signbit(interior[:-1]) != np.signbit(interior[1:]))
        assert flips == n


def test_hierarchy_potential_spectrum_shift():
    entry = sip_lookup("shifted_oscillator")
    v, shift = hierarchy_potential(entry, 3)
    assert shift == pytest.approx(4.0)  # two rungs of 2
    x = np.array([0.5, 1.5])
    # oscillator hierarchy members are all the same well shifted up
    assert np.allclose(v(x), entry.v1(x) + shift)


def test_the_hierarchy_ends_one_past_the_last_bound_state():
    # sech2 B = 2 has two bound states: member 3 is the flat V = 4 with shift 4, and past it the chain
    # would lower the shift (3 at s = 4); morse A = 3 has three, and s = 9 would need A = -5
    v, shift = hierarchy_potential(sip_lookup("sech2", B=2.0), 3)
    assert shift == pytest.approx(4.0) and v(np.linspace(-5.0, 5.0, 11)) == pytest.approx(4.0)
    hierarchy_potential(sip_lookup("morse"), 4)
    for entry, s, top in ((sip_lookup("sech2", B=2.0), 4, 3), (sip_lookup("morse"), 9, 4), (sip_lookup("morse"), 0, 4)):
        with pytest.raises(CatalogError, match=f"s = 1 to {top}, got s = {s}$"):
            hierarchy_potential(entry, s)


def test_well_hierarchy_values():
    v = well_hierarchy_potential(2, math.pi)
    x = np.array([math.pi / 2])
    assert v(x)[0] == pytest.approx(6.0 - 4.0)
    assert well_hierarchy_potential(0)(x)[0] == 0.0


def test_sech2_alias():
    entry = sip_lookup("sech2", B=2.0)
    x = np.linspace(-3, 3, 31)
    assert np.allclose(entry.v1(x), 4.0 - 6.0 / np.cosh(x) ** 2)
    spec, _ = sip_spectrum(entry, 1)
    assert spec == pytest.approx([0.0, 3.0])


def test_numeric_grid_respects_walls():
    entry = sip_lookup("coulomb")
    g = numeric_grid(entry, 101)
    assert g.x_min > 0.0


def test_parameter_override():
    entry = sip_lookup("shifted_oscillator", omega=4.0)
    spec, _ = sip_spectrum(entry, 2)
    assert spec == pytest.approx([0.0, 4.0, 8.0])



@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_entry_partner_potentials_are_the_superpotentials(name):
    entry = sip_lookup(name)
    x = np.linspace(*entry.box, 401)[1:-1]
    for p in entry.param_chain(2):
        w = entry.superpotential(p)
        assert np.array_equal(entry.v1(x, p), w.v1(x))
        assert np.array_equal(entry.v2(x, p), w.v2(x))


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_asymptotes_follow_the_parameter_chain(name):
    entry = sip_lookup(name)
    declared = (entry.w_minus, entry.w_plus)
    w = entry.superpotential()
    assert [None if v is None else v.hex() for v in (w.w_minus, w.w_plus)] == [
        None if v is None else float(v).hex() for v in declared
    ]
    for p in entry.param_chain(3):
        w = entry.superpotential(p)
        for limit, end, d in ((w.w_minus, -1e9, declared[0]), (w.w_plus, 1e9, declared[1])):
            if d is None:
                assert limit is None
            else:
                with np.errstate(over="ignore"):  # csch(1e9) = 1 / inf
                    far = float(entry.w_of(np.array(end), p))
                assert limit == pytest.approx(far, abs=1e-8)
