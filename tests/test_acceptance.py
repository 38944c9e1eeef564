"""Acceptance gate: each criterion at its stated tolerance, one line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines as
they are produced (without -s pytest shows them only for failures).
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from qbarrier import (
    AdimensionalBarrier,
    complex_resonance_energies,
    critical_complex,
    critical_quaternionic,
    asymptotic_moduli,
    oracle_amplitudes,
    probability_balance,
    scan_peaks,
    solve,
    transfer_closed,
    transfer_numeric,
    transmission,
    wave_params,
)
from qbarrier.barrier import uniform_grid
from qbarrier.cli import STANDARD_POTENTIALS, _csv_text, run_sweep
from tests.complex_reference import complex_probability, complex_t
from tests.conftest import random_points

PI = math.pi
SQRT2 = math.sqrt(2.0)
GRID_SEED = 20211

#: three-decimal reference table, energy scan at lam = 3*pi:
#: (eps1, eps2, d_eps1, eps3, d_eps2)
TABLE_ENERGY = {
    (1.0, 0.0): (1.054, 1.202, 0.148, 1.414, 0.212),
    (math.sqrt(3.0) / 2.0, 0.5): (1.049, 1.188, 0.139, 1.394, 0.206),
    (1.0 / SQRT2, 1.0 / SQRT2): (1.043, 1.170, 0.127, 1.369, 0.199),
    (0.5, math.sqrt(3.0) / 2.0): (1.034, 1.145, 0.111, 1.334, 0.189),
    (0.0, 1.0): (1.011, 1.077, 0.066, 1.246, 0.169),
}

#: three-decimal reference table, width scan at eps0 = sqrt(2), units of pi:
#: (lam1, lam2, d_lam1, lam3, d_lam2)
TABLE_WIDTH = {
    (1.0, 0.0): (2.0, 3.0, 1.0, 4.0, 1.0),
    (math.sqrt(3.0) / 2.0, 0.5): (1.949, 2.915, 0.966, 3.881, 0.966),
    (1.0 / SQRT2, 1.0 / SQRT2): (1.890, 2.817, 0.927, 3.744, 0.927),
    (0.5, math.sqrt(3.0) / 2.0): (1.819, 2.695, 0.876, 3.571, 0.876),
    (0.0, 1.0): (1.718, 2.478, 0.760, 3.238, 0.760),
}

#: columns of a table row that hold extremum locations; the other two
#: columns are spacings
LOCATION_COLUMNS = (0, 1, 3)


class Erratum(NamedTuple):
    printed: float
    corrected: float
    true: float  # the extremum scan_peaks locates, frozen to six decimals


# Three printed location digits are not the correctly rounded extremum.
# The closed formula (scan_peaks), the direct 8x8 solve and the integrator
# each locate these peaks by golden section on their own |T|^2; the three agree
# to 1e-6 and all round to the corrected digit
# (test_errata_located_by_direct_solve repeats this with solve).  The other
# 27 printed locations are correctly rounded.  Keyed by (table, potential,
# column).
ERRATA = {
    ("energy", (math.sqrt(3.0) / 2.0, 0.5), 1): Erratum(1.188, 1.187, 1.187483),
    ("energy", (1.0 / SQRT2, 1.0 / SQRT2), 3): Erratum(1.369, 1.368, 1.368495),
    ("width", (math.sqrt(3.0) / 2.0, 0.5), 3): Erratum(3.881, 3.882, 3.881770),
}

# Each printed spacing is the difference of the two printed (rounded)
# locations, not the rounded difference of the true extrema, so it can sit
# up to one print ulp from the true spacing.  These three printed spacings
# are more than half an ulp off; keyed as ERRATA: true spacing.
ROUNDED_DIFFERENCE_SPACINGS = {
    ("energy", (0.0, 1.0), 2): 0.066630,                   # printed 0.066
    ("width", (math.sqrt(3.0) / 2.0, 0.5), 2): 0.966526,   # printed 0.966
    ("width", (math.sqrt(3.0) / 2.0, 0.5), 4): 0.966526,   # printed 0.966
}


def report(number: int, name: str, passed: bool, detail: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {verdict}  {name}: {detail}")
    assert passed, f"criterion {number:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def grid500():
    return random_points(seed=GRID_SEED, n=500)


def spaced(locations):
    l1, l2, l3 = locations[:3]
    return (l1, l2, l2 - l1, l3, l3 - l2)


def _scan_energy_table():
    out = {}
    for (vc, vq) in TABLE_ENERGY:
        b = AdimensionalBarrier(vc=vc, vq=vq, theta=0.0, lam=3.0 * PI)
        peaks = scan_peaks(b, 1.001, 1.5)
        out[(vc, vq)] = spaced([x for x, _ in peaks])
    return out


def _scan_width_table():
    out = {}
    for (vc, vq) in TABLE_WIDTH:
        b = AdimensionalBarrier(vc=vc, vq=vq, theta=0.0, lam=1.0)
        peaks = scan_peaks(b, PI, 4.6 * PI, eps0=SQRT2)
        out[(vc, vq)] = spaced([x / PI for x, _ in peaks])
    return out


def _table_deviations(tag, table, found):
    rows = []
    for key, expected in table.items():
        for i, (g, e) in enumerate(zip(found[key], expected)):
            rows.append(((tag, key, i), g, e, abs(g - e)))
    return rows


def _spacings_are_location_differences(table):
    """Whether every printed spacing is the difference of its printed locations."""
    return all(
        round(row[1] - row[0], 3) == row[2] and round(row[3] - row[1], 3) == row[4]
        for row in table.values()
    )


def _corrected_table(tag, table):
    """The printed table with ERRATA applied, spacings derived from the locations."""
    out = {}
    for key, row in table.items():
        locations = [
            ERRATA[(tag, key, c)].corrected if (tag, key, c) in ERRATA else row[c]
            for c in LOCATION_COLUMNS
        ]
        out[key] = tuple(round(v, 3) for v in spaced(locations))
    return out


def _check_table(number, name, tag, table, scan):
    t0 = time.perf_counter()
    found = scan()
    elapsed = time.perf_counter() - t0
    identity = _spacings_are_location_differences(table)
    devs = _table_deviations(tag, _corrected_table(tag, table), found)
    assert len(devs) == 25
    offenders = []
    for key, g, e, d in devs:
        is_location = key[2] in LOCATION_COLUMNS
        if d < (5e-4 if is_location else 1e-3):
            continue
        entry = f"col{key[2]} of ({key[1][0]:.3f},{key[1][1]:.3f}): found {g:.6f} vs {e}"
        if key in ERRATA:
            entry += f" (corrected from printed {ERRATA[key].printed})"
        offenders.append(f"{entry} (dev {d:.2e})")
    worst_location = max(d for k, _, _, d in devs if k[2] in LOCATION_COLUMNS)
    worst_spacing = max(d for k, _, _, d in devs if k[2] not in LOCATION_COLUMNS)
    report(
        number,
        name,
        identity and not offenders and elapsed < 10.0,
        f"max location deviation {worst_location:.2e} (tol 5e-4), max spacing "
        f"deviation {worst_spacing:.2e} (tol 1e-3), {elapsed:.1f}s (limit 10s); "
        + ("" if identity else "printed spacings are not location differences; ")
        + (f"all 25 entries in tolerance, corrected locations: "
           f"{sum(k[0] == tag for k in ERRATA)}" if not offenders
           else "; ".join(offenders)),
    )


def test_criterion_01_energy_table():
    _check_table(1, "energy-resonance table (lam=3*pi, five potentials)",
                 "energy", TABLE_ENERGY, _scan_energy_table)


def test_criterion_02_width_table():
    _check_table(2, "width-resonance table (eps=sqrt(2), five potentials, units of pi)",
                 "width", TABLE_WIDTH, _scan_width_table)


def _golden_section_max(f, a, b, tol=1e-9):
    """Abscissa of the maximum of a unimodal f on [a, b], to within tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def test_errata_located_by_direct_solve():
    """Each erratum's peak, found on the 8x8 solve's own |T|^2, rounds to the
    corrected digit, matches scan_peaks to 1e-6 and is off the printed digit."""
    found = {"energy": _scan_energy_table(), "width": _scan_width_table()}
    for (tag, (vc, vq), col), erratum in ERRATA.items():
        if tag == "energy":
            b = AdimensionalBarrier(vc=vc, vq=vq, theta=0.0, lam=3.0 * PI)

            def prob(x):
                return abs(solve(x, b).t) ** 2
        else:
            def prob(x):
                b = AdimensionalBarrier(vc=vc, vq=vq, theta=0.0, lam=x * PI)
                return abs(solve(SQRT2, b).t) ** 2

        x = _golden_section_max(prob, erratum.printed - 5e-3, erratum.printed + 5e-3)
        where = f"{tag} ({vc:.3f},{vq:.3f}) col{col}: solve peak {x:.7f}"
        assert round(x, 3) == erratum.corrected, where
        assert abs(x - found[tag][(vc, vq)][col]) <= 1e-6, where
        assert abs(x - erratum.printed) > 5e-4, where


def test_reference_tables_within_one_print_ulp():
    """Every one of the 50 reference values, as printed, lies within one
    last-digit unit.

    Spacings are differences of rounded locations and three locations are
    misprinted (ERRATA), so +-5e-4 does not hold for all printed digits,
    but all 50 agree with the true extrema to the table's print resolution.
    """
    devs = _table_deviations("energy", TABLE_ENERGY, _scan_energy_table())
    devs += _table_deviations("width", TABLE_WIDTH, _scan_width_table())
    assert len(devs) == 50
    worst = max(d for _, _, _, d in devs)
    assert worst < 1e-3, f"worst deviation {worst:.2e} exceeds one print ulp"


def test_reference_tables_clean_entries_within_half_ulp():
    """The 44 printed values that are correctly rounded meet the +-5e-4 gate;
    the three ERRATA locations and the three spacings more than half an ulp
    off match their frozen true values instead."""
    devs = _table_deviations("energy", TABLE_ENERGY, _scan_energy_table())
    devs += _table_deviations("width", TABLE_WIDTH, _scan_width_table())
    frozen = {key: e.true for key, e in ERRATA.items()}
    frozen.update(ROUNDED_DIFFERENCE_SPACINGS)
    clean = [r for r in devs if r[0] not in frozen]
    assert len(clean) == 44
    assert max(d for _, _, _, d in clean) < 5e-4
    for key, g, _, _ in devs:
        if key in frozen:
            assert abs(g - frozen[key]) < 5e-6


def test_criterion_03_closed_vs_oracle(grid500):
    t0 = time.perf_counter()
    worst = max(
        abs(transmission(eps, b).t - oracle_amplitudes(eps, b).t)
        for eps, b in grid500
    )
    elapsed = time.perf_counter() - t0
    report(
        3,
        "closed formula vs integrator on 500 seeded points",
        worst < 1e-9 and elapsed < 60.0,
        f"max |dT| {worst:.2e} (tol 1e-9), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_04_norm_conservation(grid500):
    tunneling = sum(1 for eps, _ in grid500 if eps < 1.0)
    worst = max(abs(probability_balance(solve(eps, b))) for eps, b in grid500)
    report(
        4,
        "norm conservation 1-|R|^2-|T|^2 on the same 500 points",
        worst < 1e-9 and tunneling > 0,
        f"max defect {worst:.2e} (tol 1e-9), {tunneling} tunneling points included",
    )


def test_criterion_05_theta_invariance(grid500):
    worst = 0.0
    for eps, b in grid500[:100]:
        base = transmission(eps, AdimensionalBarrier(b.vc, b.vq, 0.0, b.lam)).t
        worst = max(worst, abs(transmission(eps, b).t - base))
    report(
        5,
        "phase invariance of T over 100 points",
        worst < 1e-12,
        f"max |T(theta)-T(0)| {worst:.2e} (tol 1e-12)",
    )


def test_criterion_06_closed_elements_vs_similarity_product(grid500):
    worst_scaled = 0.0
    worst_small = 0.0
    small_points = 0
    for eps, b in grid500[:200]:
        closed = transfer_closed(wave_params(eps, b), b.lam)
        numeric = transfer_numeric(eps, b)
        scale = float(np.abs(numeric).max())
        diff = float(np.abs(closed - numeric).max())
        worst_scaled = max(worst_scaled, diff / max(1.0, scale))
        if scale <= 1e3:
            small_points += 1
            worst_small = max(worst_small, diff)
    report(
        6,
        "closed element table vs exp(-A*lam) on 200 points",
        worst_scaled < 1e-10 and worst_small < 1e-10 and small_points > 50,
        f"max scaled dev {worst_scaled:.2e}, absolute {worst_small:.2e} on "
        f"{small_points} moderate points (tol 1e-10)",
    )


def test_criterion_07_complex_limit():
    rng = np.random.default_rng(GRID_SEED + 1)
    worst_t = 0.0
    below = above = 0
    while below + above < 100:
        eps = float(rng.uniform(0.2, 3.0))
        if abs(eps - 1.0) < 1e-3:
            continue
        lam = float(rng.uniform(0.05, 10.0))
        below += eps < 1.0
        above += eps > 1.0
        general = transmission(eps, AdimensionalBarrier(1.0, 0.0, 0.0, lam))
        worst_t = max(worst_t, abs(general.t - complex_t(eps, lam)))
        # |T|^2 must match the two-branch textbook probability
        assert general.prob == pytest.approx(complex_probability(eps, lam), abs=1e-12)
    report(
        7,
        "complex-barrier limit vs textbook formula on 100 points",
        worst_t < 1e-10 and below > 10 and above > 10,
        f"max |dT| {worst_t:.2e} (tol 1e-10), {below} tunneling / {above} diffusive",
    )


def test_criterion_08_critical_case():
    worst_rel = 0.0
    monotone = True
    worst_oracle = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0):
        exact = critical_quaternionic(lam).t
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=lam)
        errors = []
        for offset in (1e-3, 3e-4, 1e-4):
            err = max(
                abs(transmission(1.0 + offset, b).t - exact),
                abs(transmission(1.0 - offset, b).t - exact),
            ) / abs(exact)
            errors.append(err)
        worst_rel = max(worst_rel, errors[-1])
        monotone = monotone and errors[0] > errors[1] > errors[2]
        worst_oracle = max(worst_oracle, abs(oracle_amplitudes(1.0, b).t - exact))
    report(
        8,
        "threshold rational forms: two-sided limit and integrator match",
        worst_rel < 1e-2 and monotone and worst_oracle < 1e-9,
        f"rel err at eps=1+-1e-4 {worst_rel:.2e} (tol 1e-2, shrinking={monotone}), "
        f"integrator dev {worst_oracle:.2e} (tol 1e-9)",
    )


def test_criterion_09_asymptotic_series():
    thin, thick = 0.05, 40.0
    worst_thin = 0.0
    worst_thick = 0.0
    ratios = []
    for case, exact in (("complex", critical_complex),
                        ("pure_quaternionic", critical_quaternionic)):
        errs = {}
        for lam in (thin, thin / 2.0, thick, thick * 2.0):
            _, sr, st = asymptotic_moduli(lam, case)
            amps = exact(lam)
            errs[lam] = (abs(abs(amps.r) - sr), abs(abs(amps.t) - st))
        worst_thin = max(worst_thin, *errs[thin])
        worst_thick = max(worst_thick, *errs[thick])
        for i in (0, 1):
            if errs[thin / 2.0][i] > 0.0:
                ratios.append(errs[thin][i] / errs[thin / 2.0][i])
            if errs[thick * 2.0][i] > 0.0:
                ratios.append(errs[thick][i] / errs[thick * 2.0][i])
    passed = (
        worst_thin < thin**5
        and worst_thick < 50.0 / thick**5
        and all(r >= 16.0 for r in ratios)
    )
    report(
        9,
        "thin/thick series truncations at lam=0.05 and lam=40",
        passed,
        f"thin defect {worst_thin:.2e} (tol {thin**5:.2e}), thick defect "
        f"{worst_thick:.2e} (tol {50.0 / thick**5:.2e}), min order ratio "
        f"{min(ratios):.1f} (need >=16)",
    )


def test_criterion_10_resonance_closed_forms():
    rows = complex_resonance_energies(3.0 * PI, 3)
    eps = [r[0] for r in rows]
    dev = max(
        abs(eps[0] - math.sqrt(10.0) / 3.0),
        abs(eps[1] - math.sqrt(13.0) / 3.0),
        abs(eps[2] - SQRT2),
        # the half-integer minimum sqrt(eps**2-1)*lam = 3*pi/2
        abs(transmission(SQRT2, AdimensionalBarrier(1.0, 0.0, 0.0, 1.5 * PI)).prob - 8.0 / 9.0),
    )
    report(
        10,
        "closed-form resonance energies and minimum transmission",
        dev < 1e-12,
        f"max deviation {dev:.2e} (tol 1e-12)",
    )


def _grid_local_maxima(xs, ys):
    out = []
    for i in range(1, len(ys) - 1):
        if ys[i - 1] < ys[i] >= ys[i + 1]:
            out.append(xs[i])
    return out


def test_criterion_11_figure_data(tmp_path):
    potentials = tuple(AdimensionalBarrier(vc, vq) for vc, vq in STANDARD_POTENTIALS)
    checks = []

    energy = run_sweep("energy", 3.0 * PI, uniform_grid(1.001, 1.5, 1e-3), potentials)
    width = run_sweep("width", SQRT2, uniform_grid(PI, 4.6 * PI, PI * 1e-3), potentials)
    for tag, (grid, sweeps), table, unit in (
        ("energy", energy, TABLE_ENERGY, 1.0),
        ("width", width, TABLE_WIDTH, PI),
    ):
        xs = [x / unit for x in grid]
        probs = {(vc, vq): (np.abs(t) ** 2).tolist() for vc, vq, t in sweeps}
        values = np.array([p for ys in probs.values() for p in ys])
        checks.append(np.all(np.isfinite(grid)) and all(np.all(np.isfinite(t)) for _, _, t in sweeps))
        checks.append(bool(np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-10)))
        for (vc, vq), expected in table.items():
            ys = probs[vc, vq]
            peaks = _grid_local_maxima(xs, ys)[:3]
            step = xs[1] - xs[0]
            locs = (expected[0], expected[1], expected[3])
            checks.append(len(peaks) == 3)
            checks.append(all(abs(p - e) <= step + 5e-4 for p, e in zip(peaks, locs)))
            valleys = _grid_local_maxima(xs, [-y for y in ys])
            for p1, p2 in zip(peaks, peaks[1:]):
                checks.append(sum(1 for v in valleys if p1 < v < p2) == 1)

    # the CSV writer round-trips the same rows
    path = tmp_path / "energy.csv"
    path.write_text("".join(_csv_text({"command": "sweep"}, *energy)), encoding="utf-8")
    parsed = [
        line.split(",")
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ][1:]
    checks.append(len(parsed) == len(energy[0]) * len(energy[1]))
    checks.append(all(math.isfinite(float(c)) for c in parsed[0]))

    report(
        11,
        "figure sweep data finite, bounded, extrema consistent with tables",
        all(checks),
        f"{sum(bool(c) for c in checks)}/{len(checks)} sub-checks passed",
    )
