"""Command-line surface: formats, determinism, exit codes."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from qbarrier import AdimensionalBarrier, cli, critical_complex, transmission
from qbarrier.barrier import MAX_GRID_POINTS
from qbarrier.cli import build_parser, main
from tests.mp_reference import reference_amplitudes

SQRT2 = math.sqrt(2.0)
PI = math.pi
#: one more table row or sample than any command builds; rejected before allocation
TOO_MANY = str(MAX_GRID_POINTS + 1)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_resonant_point(self, capsys):
        code, out, _ = run(
            ["point", "--vc", "1", "--vq", "0", "--eps", "1.41421356",
             "--lambda", "6.28318531", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["t_sq"] == pytest.approx(1.0, abs=1e-7)
        assert report["balance"] == pytest.approx(0.0, abs=1e-9)

    def test_thick_point_with_overflowing_intermediate_is_finite(self, capsys):
        # |numerator of D| overflows on the way to a finite T of about 3e-154
        code, out, err = run(
            ["point", "--vc", "0.32675730030820205", "--vq", "0.9451082830529502",
             "--theta", "2.5480667791765845", "--eps", "0.2966144203374993",
             "--lambda", "434.58721422425265"],
            capsys,
        )
        assert code == 0
        assert "nan" not in out.lower() and "inf" not in out.lower()
        assert "Traceback" not in err

    def test_zero_width(self, capsys):
        code, out, _ = run(
            ["point", "--vc", "0", "--vq", "1", "--eps", "1.2", "--lambda", "0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["re_t"] == 1.0 and report["im_t"] == 0.0
        assert report["re_r"] == 0.0

    def test_matches_library_round_trip(self, capsys):
        from qbarrier import AdimensionalBarrier, solve, transmission

        code, out, _ = run(
            ["point", "--vc", "0", "--vq", "1", "--theta", "0", "--eps", "1.2",
             "--lambda", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        b = AdimensionalBarrier(vc=0.0, vq=1.0, theta=0.0, lam=3.0)
        expected = transmission(1.2, b)
        amps = solve(1.2, b)
        assert report["re_t"] == pytest.approx(expected.t.real, abs=1e-12)
        assert report["im_t"] == pytest.approx(expected.t.imag, abs=1e-12)
        assert report["re_rt"] == pytest.approx(amps.rt.real, abs=1e-12)

    def test_lambda_pi_units(self, capsys):
        code_a, out_a, _ = run(
            ["point", "--vc", "1", "--vq", "0", "--eps", "1.3", "--lambda-pi", "2",
             "--format", "json"], capsys)
        code_b, out_b, _ = run(
            ["point", "--vc", "1", "--vq", "0", "--eps", "1.3",
             "--lambda", str(2 * PI), "--format", "json"], capsys)
        assert code_a == code_b == 0
        assert json.loads(out_a)["t_sq"] == pytest.approx(json.loads(out_b)["t_sq"], abs=1e-12)

    def test_physical_route(self, capsys):
        code, out, _ = run(
            ["point", "--physical", "1", "0", "0", str(3 * PI), "1", "1", "2",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["eps"] == pytest.approx(SQRT2, abs=1e-9)
        assert report["lambda"] == pytest.approx(SQRT2 * 3 * PI, abs=1e-9)

    def test_invalid_potential_exits_2(self, capsys):
        code, _, err = run(
            ["point", "--vc", "0.5", "--vq", "0.5", "--eps", "1.2", "--lambda", "1"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_degenerate_point_exits_3_naming_critical(self, capsys):
        code, _, err = run(
            ["point", "--vc", "0", "--vq", "1", "--eps", "1", "--lambda", "2"],
            capsys,
        )
        assert code == 3
        assert "critical" in err

    def test_singular_continuity_system_exits_5_naming_the_point(self, capsys):
        # a valid thick well where exp(-eps*lam) underflows to 0 (formerly exit 2, "Singular matrix")
        code, out, err = run(
            ["point", "--vc", "-0.9139725352895285", "--vq", "0.4057760524432554",
             "--eps", "2.8585921603787865", "--lambda", "261.980135469727"],
            capsys,
        )
        assert (code, out) == (5, "")
        assert err == ("error: the continuity system is singular to working precision at "
                       "eps=2.8585921603787865, lam=261.980135469727\n")

    def test_subnormal_energy_and_width_exit_5_printing_no_nan(self, capsys):
        # max(eps, min(1, lam)) is subnormal: formerly exit 0 with four nan lines
        code, out, err = run(
            ["point", "--vc", "0.6", "--vq", "0.8", "--theta", "0.3", "--eps", "1e-320", "--lambda", "1e-321"],
            capsys,
        )
        assert (code, out) == (5, "")
        assert err == ("error: the continuity system is singular to working precision at "
                       "eps=1e-320, lam=1e-321\n")


class TestSweep:
    ARGS = ["sweep", "--mode", "energy", "--fixed", str(3 * PI),
            "--start", "1.05", "--stop", "1.10", "--step", "0.01",
            "--potentials", "1,0;0,1"]

    def test_csv_layout(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(self.ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert comments and comments[0].startswith("# qbarrier ")
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "variable,vc,vq,t_sq,re_t,im_t,phase"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2 * 6  # two potentials, six grid points
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 7
            assert 0.0 <= float(cells[3]) <= 1.0 + 1e-10

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(self.ARGS + ["--out", str(p1)], capsys)
        run(self.ARGS + ["--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_equal_ends_give_one_row_per_potential(self, capsys):
        code, out, _ = run(
            ["sweep", "--mode", "width", "--fixed", "1.4", "--start", "2.0",
             "--stop", "2.0", "--step", "0.1", "--potentials", "1,0;0,1"],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "variable,vc,vq,t_sq,re_t,im_t,phase"
        assert [r.split(",")[:3] for r in rows[1:]] == [["2", "1", "0"], ["2", "0", "1"]]

    def test_unknown_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mode", "frequency", "--fixed", "1", "--start", "1", "--stop", "2",
                  "--step", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'frequency'" in capsys.readouterr().err

    def test_json_structure(self, capsys):
        code, out, _ = run(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["columns"] == ["variable", "vc", "vq", "t_sq",
                                              "re_t", "im_t", "phase"]
        assert len(payload["rows"]) == 12
        assert all(len(r) == 7 for r in payload["rows"])

    def test_unwritable_path_exits_4(self, capsys):
        code, _, err = run(self.ARGS + ["--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 4
        assert "cannot write" in err

    def test_width_mode_threshold_grid_point_exits_3(self, capsys):
        # for vq = 1 the threshold is also the degenerate point
        code, _, _ = run(
            ["sweep", "--mode", "energy", "--fixed", "2.0", "--start", "1.0",
             "--stop", "1.1", "--step", "0.05", "--potentials", "0,1"],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("mode", ["energy", "width"])
    def test_run_sweep_makes_one_transmission_call(self, count, mode, monkeypatch):
        calls = []

        def spy(eps, b):
            calls.append(len(eps))
            return transmission(eps, b)

        monkeypatch.setattr(cli, "transmission", spy)
        potentials = [AdimensionalBarrier(vc, vq) for vc, vq in cli.STANDARD_POTENTIALS[:count]]
        grid, sweeps = cli.run_sweep(mode, 1.4, np.array([1.1, 1.15, 1.2]), potentials)
        assert calls == [3 * count]
        assert [(vc, vq, len(t)) for vc, vq, t in sweeps] == [(b.vc, b.vq, 3) for b in potentials]

    def test_first_failing_point_in_row_order_names_the_error(self, capsys):
        # (0, 1) is degenerate at its second point, eps = 1, and (0.6, 0.8) at the first,
        # eps = sqrt(0.8): potential-major order meets (0, 1) first
        code, out, err = run(["sweep", "--mode", "energy", "--fixed", "2", "--start", "0.894427190999916",
                              "--stop", "1.0", "--step", "0.105572809000084", "--potentials", "0,1;0.6,0.8"],
                             capsys)
        assert code == 3 and out == ""
        assert "(eps=1.0, vq=1.0)" in err and "critical_quaternionic" in err


class TestResonances:
    def test_energy_table_complex_row_closed_form(self, capsys):
        code, out, _ = run(
            ["resonances", "--lambda-pi", "3", "--potentials", "1,0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        eps1, eps2, d1, eps3, d2 = row["values"]
        assert eps1 == pytest.approx(math.sqrt(10.0) / 3.0, abs=1e-12)
        assert eps2 == pytest.approx(math.sqrt(13.0) / 3.0, abs=1e-12)
        assert eps3 == pytest.approx(SQRT2, abs=1e-12)

    def test_width_table_pure_quaternionic(self, capsys):
        code, out, _ = run(
            ["resonances", "--eps0", str(SQRT2), "--potentials", "0,1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["values"][0] == pytest.approx(1.718, abs=5e-4)
        assert row["values"][1] == pytest.approx(2.478, abs=5e-4)

    def test_width_table_well_row_is_scanned(self, capsys):
        # a well's inner wave number is sqrt(eps0**2 + 1): peaks at lam = n*pi/sqrt(3)
        code, out, _ = run(
            ["resonances", "--eps0", str(SQRT2), "--potentials=-1,0", "--format", "json"], capsys)
        assert code == 0
        lam2, lam3, _, lam4, _ = json.loads(out)["rows"][0]["values"]
        assert [lam2, lam3, lam4] == pytest.approx([n / math.sqrt(3.0) for n in (2, 3, 4)], abs=1e-6)

    def test_scanned_row_with_n_peaks_keeps_all_values(self, capsys):
        code, out, _ = run(
            ["resonances", "--eps0", "1.41421356", "--potentials=-0.6,0.8", "--format", "json"],
            capsys)
        assert code == 0
        assert len(json.loads(out)["rows"][0]["values"]) == 5

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--lambda", "60", "--potentials=-0.6,0.8"], "vc=-0.6, vq=0.8: 0 of --n 3"),
            (["--lambda-pi", "3", "--potentials=-1,0"], "vc=-1, vq=0: 1 of --n 3"),
            (["--lambda-pi", "3", "--potentials=-0.6,0.8"], "vc=-0.6, vq=0.8: 2 of --n 3"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_row_with_fewer_than_n_peaks_exits_2_naming_it(self, args, named, fmt, capsys):
        code, out, err = run(["resonances", *args, "--format", fmt], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "mode",
        [["--lambda-pi", "3"], ["--eps0", "1.41421356"], ["--lambda", "1"], ["--lambda", "10"],
         ["--eps0", "1.1"], ["--eps0", "3"]],
        ids=lambda m: "".join(m),
    )
    def test_standard_table_has_n_peaks_in_every_row(self, mode, capsys):
        for n in (1, 3, 5, 8):
            code, out, _ = run(["resonances", *mode, "--n", str(n), "--format", "json"], capsys)
            assert code == 0
            assert [len(r["values"]) for r in json.loads(out)["rows"]] == [2 * n - 1] * 5

    def test_flat_topped_peaks_are_found_once(self, capsys):
        # at lambda = 0.5, 1 - |T|**2 is within a few ulp of 0 for ~0.01 around each peak
        # past the first, and every rounding-noise maximum there used to be a peak: eps2 =
        # 14.109, eps3 = 14.116.  The mpmath maxima are 7.88204, 14.13606 and 20.42044;
        # |T|**2 resolves the flat tops to a few 1e-3 only.
        code, out, _ = run(["resonances", "--lambda", "0.5", "--potentials", "0,1", "--n", "3",
                            "--format", "json"], capsys)
        assert code == 0
        eps1, eps2, _, eps3, _ = json.loads(out)["rows"][0]["values"]
        assert [eps1, eps2, eps3] == pytest.approx([7.88204, 14.13606, 20.42044], abs=5e-3)

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run(["resonances", "--potentials", "1,0"], capsys)
        assert code == 2
        code, _, _ = run(
            ["resonances", "--lambda", "3", "--eps0", "1.4", "--potentials", "1,0"],
            capsys,
        )
        assert code == 2


class TestCritical:
    def test_zero_width_quaternionic(self, capsys):
        code, out, _ = run(
            ["critical", "--case", "q", "--lambda", "0", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["re_t"] == pytest.approx(1.0) and report["im_t"] == 0.0
        assert report["abs_r"] == 0.0

    def test_series_report_thin(self, capsys):
        code, out, _ = run(
            ["critical", "--case", "c", "--lambda", "0.1", "--series",
             "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["series_regime"] == "thin"
        assert report["abs_r"] == pytest.approx(report["series_abs_r"], abs=1e-6)

    def test_unknown_case_exits_2(self, capsys):
        code, _, _ = run(["critical", "--case", "x", "--lambda", "1"], capsys)
        assert code == 2


@pytest.mark.parametrize(
    "args, named",
    [
        (["sweep", "--mode", "energy", "--fixed", "3", "--start", "1.1", "--stop", "1.2",
          "--step", "0.05", "--potentials", "nan,1"], "vc"),
        (["sweep", "--mode", "energy", "--fixed", "nan", "--start", "1.1", "--stop", "1.2",
          "--step", "0.05", "--potentials", "0,1"], "fixed"),
        (["sweep", "--mode", "width", "--fixed", "1.4", "--start", "2", "--stop", "inf",
          "--step", "0.1", "--potentials", "1,0"], "stop"),
        (["sweep", "--mode", "width", "--fixed", "1.4", "--start", "2", "--stop", "2",
          "--step", "0.1", "--potentials", "0.866025404,0.5"], "vc**2 + vq**2"),
        (["resonances", "--lambda-pi", "3", "--potentials", "nan,1"], "vc"),
        (["resonances", "--eps0", "nan", "--potentials", "1,0"], "eps0"),
        (["resonances", "--lambda-pi", "3", "--potentials", "1.0000000001,0"], "vc**2 + vq**2"),
        (["critical", "--case", "c", "--lambda", "inf"], "lam"),
        (["critical", "--case", "q", "--lambda", "nan"], "lam"),
        (["point", "--vc", "0", "--vq", "1", "--eps", "nan", "--lambda", "3"], "eps"),
        (["point", "--vc", "0", "--vq", "1", "--eps", "nan", "--lambda", "0"], "eps"),
        (["point", "--physical", "1", "0", "0", "nan", "1", "1", "2"], "length"),
        (["sweep", "--mode", "energy", "--fixed", "3", "--start", "1.1", "--stop", "1e300",
          "--step", "1e-300", "--potentials", "1,0"], "step=1e-300"),
        (["sweep", "--mode", "energy", "--fixed", "3", "--start", "1.1", "--stop", "1e9",
          "--step", "1e-9", "--potentials", "1,0"], "step=1e-09"),
        (["resonances", "--lambda-pi", "3", "--potentials", "1,0", "--n", TOO_MANY], "n_max"),
        (["resonances", "--eps0", "1.5", "--potentials", "1,0", "--n", TOO_MANY], "n_max"),
        (["verify", "--samples", TOO_MANY], "samples"),
        (["resonances", "--lambda-pi", "3", "--potentials", ""], "vc,vq[,theta]"),
        (["resonances", "--lambda-pi", "3", "--potentials", ";"], "vc,vq[,theta]"),
        (["resonances", "--lambda-pi", "3", "--potentials", "1"], "expected"),
        (["resonances", "--lambda-pi", "3", "--potentials", "1,0,0,0"], "expected"),
        (["point", "--vc", "0", "--vq", "1", "--eps", "1.2", "--lambda", "3", "--lambda-pi", "1"],
         "not both"),
        (["critical", "--case", "q"], "is required"),
        (["point", "--vq", "1", "--eps", "1.2", "--lambda", "3"], "point needs --vc"),
        (["resonances", "--eps0", "1e200", "--potentials", "1,0"], "eps0**2"),
        (["resonances", "--lambda", "1e-300", "--potentials", "1,0"], "(4*pi/lambda0)**2"),
        (["sweep", "--mode", "energy", "--fixed", "3", "--start", "1.1", "--stop", "1.2",
          "--step", "nan", "--potentials", "1,0"], "step must be finite and > 0.0"),
        (["verify", "--seed", "-1", "--samples", "3"], "seed"),
        (["verify", "--samples", "1" + "0" * 400], "samples"),
        (["point", "--physical", "1", "0", "0", "1", "1", "1", "1", "--eps", "99", "--vc", "0", "--vq", "1",
          "--lambda", "7"], "give either --physical or --vc/--vq/--eps/--lambda, not both"),
        (["point", "--physical", "1", "0", "0", "1", "1", "1", "1", "--lambda-pi", "2"], "--physical"),
        (["point", "--physical", "1", "0", "0", "1", "1", "1", "1", "--theta", "0"], "--physical"),
        (["resonances", "--lambda", "1e9", "--potentials", "1,0", "--format", "json"], "lambda0"),
        (["resonances", "--lambda", "1e9", "--potentials", "table"], "lambda0"),
    ],
)
def test_invalid_input_exits_2_naming_it(args, named, capsys):
    code, out, err = run(args, capsys)  # an uncaught exception would fail here
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert "nan" not in out.lower() and "inf" not in out.lower()


def test_negative_width_grid_exits_2_naming_lam(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["sweep", "--mode", "width", "--fixed", "1.2", "--start", "-1",
                              "--stop", "1", "--step", "0.5", "--potentials", "0,1"], capsys)
    assert code == 2
    assert err == "error: lam must be finite and >= 0.0, got -1.0\n"
    assert out == ""


@pytest.mark.parametrize(
    "args, code",
    [
        (["point", "--physical", "1e200", "0", "0", "1", "1", "1", "1"], 3),
        (["point", "--physical", "0", "1", "0", "1", "1", "1e200", "1"], 3),
        (["critical", "--case", "q", "--lambda", "1e100"], 0),
        (["critical", "--case", "q", "--lambda", "0.003"], 0),
        (["critical", "--case", "c", "--lambda", "1e100", "--series"], 0),
        (["critical", "--case", "q", "--lambda", "1e100", "--series"], 0),
        (["resonances", "--lambda", "1e-300", "--potentials", "1,0"], 2),
        (["resonances", "--eps0", "1e200", "--potentials", "1,0"], 2),
        (["point", "--vc", "1", "--vq", "0", "--eps", "1e200", "--lambda", "1e-156"], 2),
        (["point", "--vc", "0.6", "--vq", "0.8", "--eps", "1e100", "--lambda", "1"], 2),
    ],
)
def test_huge_finite_input_ends_finite_or_typed(args, code, capsys):
    assert run(args, capsys)[0] == code  # an uncaught OverflowError would fail here
    assert run(args + ["--format", "json"], capsys)[0] == code
    out = capsys.readouterr().out
    assert "nan" not in out.lower() and "inf" not in out.lower()


@pytest.mark.parametrize(
    "args, case",
    [
        (["point", "--physical", "0", "1", "0", "1", "1", "1", "1"], "--case q"),
        (["point", "--vc", "0", "--vq", "1", "--eps", "1", "--lambda", "3"], "--case q"),
        (["point", "--physical", "0", "0", "1", "1", "1", "1", "1"], "--case q"),
        (["point", "--vc", "0.6", "--vq", "0.8", "--eps", "0.8944271909999159",
          "--lambda", "2"], None),
    ],
)
def test_singular_point_exits_3_naming_its_exact_case(args, case, capsys):
    code, _, err = run(args, capsys)
    assert code == 3
    if case is None:
        assert "critical" not in err
    else:
        assert case in err


def threshold_row(out):
    """(lam, T, R or None) at eps = 1 from a point or a sweep JSON report."""
    report = json.loads(out)
    if "rows" not in report:
        return report["lambda"], complex(report["re_t"], report["im_t"]), complex(report["re_r"], report["im_r"])
    row = next(r for r in report["rows"] if r[0] == 1.0)
    return float(report["meta"]["fixed"]), complex(row[4], row[5]), None


@pytest.mark.parametrize(
    "args",
    [
        ["point", "--vc", "1", "--vq", "0", "--eps", "1", "--lambda", "2"],
        ["point", "--physical", "1", "0", "0", "1", "1", "1", "1"],
        ["point", "--physical", "1", "0", "0", "1", "1", "1e200", "1"],
        ["sweep", "--mode", "energy", "--fixed", "1", "--start", "0.9", "--stop", "1.1",
         "--step", "0.1", "--potentials", "1,0"],
        ["sweep", "--mode", "energy", "--fixed", "2.0", "--start", "1.0",
         "--stop", "1.1", "--step", "0.05", "--potentials", "1,0"],
    ],
    ids=["point", "physical", "physical-huge-hbar", "sweep-across", "sweep-from"],
)
def test_complex_threshold_prints_critical_values(args, capsys):
    code, out, _ = run(args + ["--format", "json"], capsys)
    assert code == 0
    lam, t, r = threshold_row(out)
    exact = critical_complex(lam)
    assert abs(t - exact.t) <= 1e-15
    assert r is None or abs(r - exact.r) <= 1e-15


@pytest.mark.parametrize(
    "args",
    [
        ["point", "--vc", "-1", "--vq", "0", "--eps", "1", "--lambda", "2"],
        ["sweep", "--mode", "energy", "--fixed", "2", "--start", "0.999", "--stop", "1.001",
         "--step", "0.001", "--potentials=-1,0"],
    ],
)
def test_threshold_of_a_well_answers(args, capsys):
    code, out, _ = run(args + ["--format", "json"], capsys)
    assert code == 0
    lam, t, _ = threshold_row(out)
    assert abs(t - reference_amplitudes(1.0, -1.0, 0.0, 0.0, lam)[2]) <= 1e-13


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--samples", "5", "--out", "x.txt"],
        ["verify", "--samples", "5", "--format", "json"],
        ["point", "--vc", "1", "--vq", "0", "--eps", "2", "--lambda", "1", "--seed", "3"],
        ["point", "--vc", "1", "--vq", "0", "--eps", "2", "--lambda", "1", "--format", "csv"],
        ["critical", "--case", "c", "--lambda", "1", "--format", "csv"],
        ["resonances", "--lambda", "3", "--potentials", "1,0", "--format", "csv"],
        ["sweep", "--mode", "energy", "--fixed", "1", "--start", "2", "--stop", "2",
         "--step", "1", "--format", "text"],
    ],
)
def test_flag_a_subcommand_does_not_read_is_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_verify_small_run_exits_zero(capsys):
    code, out, _ = run(["verify", "--samples", "40", "--seed", "7"], capsys)
    assert code == 0
    assert "norm-conservation" in out
    assert "5/5 check classes passed" in out


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
