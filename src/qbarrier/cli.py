"""Command-line front end.

Subcommands:

    point       one (eps, vc, vq, theta, lam) evaluation
    sweep       transmission tables over energy or width grids (csv/json)
    resonances  peak/spacing tables for a list of potentials
    critical    exact threshold amplitudes and their series
    verify      seeded self-check suite; exit code counts failed classes

Adimensional inputs are primary; `point --physical` accepts the raw
barrier data (V1 V2 V3 L mass hbar energy) instead.  Widths may be given
in units of pi with --lambda-pi.  Exit codes: 2 invalid parameters,
3 a point in the degeneracy band eps**4 ~ vq**2 (naming the exact
`critical` case, if any), 4 unwritable output path, 5 a valid `point`
whose continuity system is singular to working precision (thick
barriers, or subnormal eps and lambda; naming eps and lambda).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .barrier import (AdimensionalBarrier, BarrierColumns, BarrierSpec, adimensionalize, blocks, require_finite,
                      uniform_grid)
from .closed_form import transmission
from .critical import THICK_LIMIT, THIN_LIMIT, asymptotic_moduli, critical_complex, critical_quaternionic
from .errors import DegenerateEnergyError, QBarrierError, SingularSystemError
from .resonance import complex_resonance_energies, complex_resonance_widths, scan_peaks
from .solver import probability_balance, solve
from .verify import run_all

#: the five reference potentials used throughout: pure complex to pure quaternionic
STANDARD_POTENTIALS = (
    (1.0, 0.0),
    (math.sqrt(3.0) / 2.0, 0.5),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (0.5, math.sqrt(3.0) / 2.0),
    (0.0, 1.0),
)

SWEEP_COLUMNS = ("variable", "vc", "vq", "t_sq", "re_t", "im_t", "phase")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_potentials(text: str) -> list[AdimensionalBarrier]:
    """Barriers of unit width, one per 'vc,vq[,theta]' item; 'table' is the standard five."""
    if text.strip() == "table":
        return [AdimensionalBarrier(vc=vc, vq=vq) for vc, vq in STANDARD_POTENTIALS]
    rows = []
    for chunk in text.split(";"):
        parts = [p for p in chunk.strip().split(",") if p]
        if len(parts) not in (2, 3):
            raise ValueError(f"potential {chunk!r}: expected 'vc,vq[,theta]'")
        rows.append(AdimensionalBarrier(*map(float, parts)))
    return rows


def _pi_flag(value: float | None, value_pi: float | None, flag: str,
             required: bool = True) -> float | None:
    """The value of `flag`, or of `flag`-pi in units of pi; giving both is an error."""
    if value is not None and value_pi is not None:
        raise ValueError(f"give either {flag} or {flag}-pi, not both")
    if value_pi is not None:
        return value_pi * math.pi
    if value is None and required:
        raise ValueError(f"{flag} or {flag}-pi is required")
    return value


def _emit(pieces, out: str | None) -> int:
    """Write the text pieces, in order, to stdout or to the file out."""
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        print(f"error: cannot write {out!r}: {exc}", file=sys.stderr)
        return 4
    return 0


def _rows(first: list, sweeps: list[tuple], row, sep: str, column):
    """Every potential's rows, joined by sep, as pieces of at most `blocks(len(first), 16)`'s rows.

    row(vc, vq) holds vc and vq formatted (no number's text holds a '%');
    a piece is one `%` call on as many copies of it as it has rows, whose
    five slots take first[i], the grid column, and the i-th values of
    column() of t_sq, re_t, im_t and phase, interleaved by slice assignment.
    Each piece but the first starts with sep.
    """
    lead = ""
    for vc, vq, t in sweeps:
        template = row(vc, vq)
        for block in blocks(len(first), 16):
            part = t[block]
            args = [None] * (5 * len(part))
            args[0::5] = first[block]
            args[1::5], args[2::5], args[3::5], args[4::5] = map(column, [
                (np.abs(part) ** 2).tolist(), part.real.tolist(), part.imag.tolist(), np.angle(part).tolist()])
            yield lead + sep.join([template] * len(part)) % tuple(args)
            lead = sep


def _json_tokens(values: list[float]) -> list[str]:
    """The C encoder's token of each value; no token contains its separator ', ', so the split is exact."""
    return json.dumps(values)[1:-1].split(", ")


def _csv_text(meta: dict, grid: list[float], sweeps: list[tuple]):
    """The sweep as CSV, in pieces (`_rows`), each value written as `format(v, ".12g")`.

    Each distinct value is formatted once: the grid column per sweep, vc
    and vq per potential, each amplitude by its piece's `%` call.
    `"%.12g" % v` is `format(v, ".12g")`, one C routine for every float.
    """
    lines = [f"# qbarrier {__version__}", *(f"# {key}={value}" for key, value in meta.items()),
             ",".join(SWEEP_COLUMNS)]
    yield "\n".join(lines) + "\n"
    yield from _rows([_fmt(x) for x in grid], sweeps, lambda vc, vq: f"%s,{vc:.12g},{vq:.12g}" + ",%.12g" * 4,
                     "\n", list)
    yield "\n"


def _json_text(meta: dict, grid: list[float], sweeps: list[tuple]):
    """`json.dumps(payload, sort_keys=True, indent=1)` plus a newline, in pieces, payload's rows those of `_csv_text`.

    The indent encoder is pure Python, so each column goes through the C
    encoder in compact form (`_json_tokens`), which writes a float as it
    does: its repr, `NaN`, `Infinity` or `-Infinity`.  Each distinct value
    is formatted once, as in `_csv_text`; grid and sweeps are never empty.
    """
    head = json.dumps({"meta": {"tool": "qbarrier", "version": __version__, **meta,
                                "columns": list(SWEEP_COLUMNS)},
                       "rows": []}, sort_keys=True, indent=1)
    # "rows" sorts last, so the head ends with its empty list
    yield head[:-len("[]\n}")] + "[\n  [\n   "
    yield from _rows(_json_tokens(grid), sweeps,
                     lambda vc, vq: f"%s,\n   {json.dumps(vc)},\n   {json.dumps(vq)}" + ",\n   %s" * 4,
                     "\n  ],\n  [\n   ", _json_tokens)
    yield "\n  ]\n ]\n}\n"


def _report(args, payload, lines: list[str]) -> int:
    """Write `payload` as indented JSON or `lines` as text, as --format asks."""
    if args.format == "json":
        return _emit([json.dumps(payload, sort_keys=True, indent=1) + "\n"], args.out)
    return _emit(["\n".join(lines) + "\n"], args.out)


# ---------------------------------------------------------------- point

def cmd_point(args) -> int:
    if args.physical is not None:
        adimensional = (args.vc, args.vq, args.eps, args.lam, args.lam_pi, args.theta)
        if any(flag is not None for flag in adimensional):
            raise ValueError("give either --physical or --vc/--vq/--eps/--lambda, not both")
        barrier, eps = adimensionalize(BarrierSpec(*args.physical))
    else:
        if args.vc is None or args.vq is None or args.eps is None:
            raise ValueError("point needs --vc, --vq and --eps (or --physical)")
        lam = _pi_flag(args.lam, args.lam_pi, "--lambda")
        theta = 0.0 if args.theta is None else args.theta
        barrier = AdimensionalBarrier(vc=args.vc, vq=args.vq, theta=theta, lam=lam)
        eps = args.eps

    if barrier.lam == 0.0:
        # no barrier: the free particle passes, and no route checks eps
        require_finite("eps", eps, 0.0, strict=True)
        t, t_sq, phase, r, rt, tt, balance = 1 + 0j, 1.0, 0.0, 0j, 0j, 0j, 0.0
    else:
        result = transmission(eps, barrier)
        amps = solve(eps, barrier)
        t, t_sq, phase, balance = result.t, result.prob, result.phase, probability_balance(amps)
        r, rt, tt = amps.r, amps.rt, amps.tt
    report = {
        "eps": eps, "vc": barrier.vc, "vq": barrier.vq,
        "theta": barrier.theta, "lambda": barrier.lam,
        "re_t": t.real, "im_t": t.imag, "t_sq": t_sq, "phase": phase,
        "re_r": r.real, "im_r": r.imag, "re_rt": rt.real, "im_rt": rt.imag,
        "re_tt": tt.real, "im_tt": tt.imag, "balance": balance,
    }
    lines = [
        f"eps     = {_fmt(report['eps'])}",
        f"vc, vq  = {_fmt(report['vc'])}, {_fmt(report['vq'])}",
        f"theta   = {_fmt(report['theta'])}",
        f"lambda  = {_fmt(report['lambda'])}",
        f"T       = {_fmt(report['re_t'])} {_fmt(report['im_t'])}j",
        f"|T|^2   = {_fmt(report['t_sq'])}",
        f"phase T = {_fmt(report['phase'])}",
        f"R       = {_fmt(report['re_r'])} {_fmt(report['im_r'])}j",
        f"R~      = {_fmt(report['re_rt'])} {_fmt(report['im_rt'])}j",
        f"T~      = {_fmt(report['re_tt'])} {_fmt(report['im_tt'])}j",
        f"1-|R|^2-|T|^2 = {report['balance']:.3e}",
    ]
    return _report(args, report, lines)


# ---------------------------------------------------------------- sweep

def run_sweep(mode: str, fixed: float, grid: np.ndarray,
              potentials: list[AdimensionalBarrier]) -> tuple[list[float], list[tuple]]:
    """The sweep's columns: the grid as floats, once, and each potential's (vc, vq, t).

    Mode "energy" sweeps eps at lam = fixed and "width" sweeps lam at eps =
    fixed, ignoring the potentials' own widths.  All points go through one
    `transmission` batch in the writers' row order, potential-major, so it
    raises the first failing row's error; t is a potential's slice of it.
    The writers format the grid once per sweep and vc and vq once per
    potential.
    """
    axis = np.asarray(grid)
    vc, vq, theta = np.repeat(np.array([(b.vc, b.vq, b.theta) for b in potentials]).T, len(axis), axis=1)
    swept = np.tile(axis, len(potentials))
    eps, lam = (swept, fixed) if mode == "energy" else (np.full(swept.shape, fixed), swept)
    t = transmission(eps, BarrierColumns(vc, vq, theta, lam)).reshape(len(potentials), len(axis))
    return axis.tolist(), [(b.vc, b.vq, row) for b, row in zip(potentials, t)]


def cmd_sweep(args) -> int:
    potentials = _parse_potentials(args.potentials)
    fixed = _pi_flag(args.fixed, args.fixed_pi, "--fixed")
    require_finite("fixed", fixed, 0.0, strict=args.mode == "width")
    grid, sweeps = run_sweep(args.mode, fixed, uniform_grid(args.start, args.stop, args.step), potentials)
    meta = {
        "command": "sweep", "mode": args.mode, "fixed": _fmt(fixed),
        "start": _fmt(args.start), "stop": _fmt(args.stop), "step": _fmt(args.step),
        "potentials": ";".join(f"{b.vc:.9g},{b.vq:.9g},{b.theta:.9g}" for b in potentials),
    }
    if args.format == "json":
        return _emit(_json_text(meta, grid, sweeps), args.out)
    return _emit(_csv_text(meta, grid, sweeps), args.out)


# ---------------------------------------------------------------- resonances

def cmd_resonances(args) -> int:
    potentials = _parse_potentials(args.potentials)
    n_peaks = args.n
    lam0 = _pi_flag(args.lam, args.lam_pi, "--lambda", required=False)
    if (lam0 is None) == (args.eps0 is None):
        raise ValueError("give exactly one of --lambda/--lambda-pi or --eps0")
    if lam0 is not None:
        closed = complex_resonance_energies(lam0, n_peaks)
        lo = 1.0 + min(1e-3, (closed[0][0] - 1.0) / 10.0)
        hi = closed[-1][0] + closed[-1][2]  # the minimum after the last tabulated peak
        step = min(1e-3, (closed[0][0] - 1.0) / 20.0)

        def scan(b):
            return scan_peaks(replace(b, lam=lam0), lo, hi, coarse_step=step)

        axis, suffix, unit = "eps", "", 1.0
    else:
        closed = complex_resonance_widths(args.eps0, n_peaks)
        # scan from the fundamental (one spacing) upward: sub-fundamental peaks
        # are not tabulated
        lo, hi = closed[0][1], closed[-1][0] + 0.6 * closed[0][1]
        # 1 + max(eps0**2, 1) bounds |alpha|**2 on the unit circle: 32 steps per shortest period
        step = math.pi / (32.0 * math.sqrt(1.0 + max(args.eps0 * args.eps0, 1.0)))

        def scan(b):
            return scan_peaks(b, lo, hi, eps0=args.eps0, coarse_step=step)

        axis, suffix, unit = "lam", "_pi", math.pi

    names = _interleave([f"{axis}{i}{suffix}" for i in range(1, n_peaks + 1)],
                        lambda name, prev: f"d_{prev}")
    lines = ["vc       vq       " + "  ".join(f"{h:>9}" for h in names)]
    payload = []
    for b in potentials:
        if b.vq == 0.0 and b.vc > 0.0:
            locs = [row[0] for row in closed]
        else:
            locs = [x for x, _ in scan(b)[:n_peaks]]
            if len(locs) < n_peaks:
                raise ValueError(f"potential vc={b.vc:g}, vq={b.vq:g}: {len(locs)} of --n {n_peaks} "
                                 f"peaks found for {axis} in [{lo:.6g}, {hi:.6g}]")
        flat = _interleave([x / unit for x in locs], lambda x, prev: x - prev)
        payload.append({"vc": b.vc, "vq": b.vq, "values": flat})
        lines.append(f"{b.vc:<8.6f} {b.vq:<8.6f} " + "  ".join(f"{v:>9.3f}" for v in flat))
    return _report(args, {"meta": {"tool": "qbarrier", "version": __version__}, "rows": payload}, lines)


def _interleave(items: list, gap) -> list:
    """A table row's column order: x1, x2, gap(x2, x1), x3, gap(x3, x2), ..."""
    out = items[:1]
    for prev, item in zip(items, items[1:]):
        out += [item, gap(item, prev)]
    return out


# ---------------------------------------------------------------- critical

def cmd_critical(args) -> int:
    lam = _pi_flag(args.lam, args.lam_pi, "--lambda")
    if args.case in ("c", "complex"):
        amps = critical_complex(lam)
    elif args.case in ("q", "quaternionic"):
        amps = critical_quaternionic(lam, args.theta)
    else:
        raise ValueError(f"unknown case {args.case!r}")
    report = {
        "case": amps.case, "lambda": lam,
        "re_r": amps.r.real, "im_r": amps.r.imag, "abs_r": abs(amps.r),
        "re_t": amps.t.real, "im_t": amps.t.imag, "abs_t": abs(amps.t),
        "balance": probability_balance(amps),
    }
    if amps.tt is not None:
        report.update({"re_rt": amps.rt.real, "im_rt": amps.rt.imag,
                       "re_tt": amps.tt.real, "im_tt": amps.tt.imag})
    if args.series:
        series = asymptotic_moduli(lam, amps.case)
        if series is None:
            report["series"] = f"no regime applies for {THIN_LIMIT:g} <= lambda <= {THICK_LIMIT:g}"
        else:
            regime, sr, st = series
            report.update({"series_regime": regime, "series_abs_r": sr, "series_abs_t": st})
    return _report(args, report, [f"{k} = {v}" for k, v in report.items()])


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    reports = run_all(args.seed, args.samples)
    for report in reports:
        print(report.line())
    failures = sum(0 if r.passed else 1 for r in reports)
    print(f"{len(reports) - failures}/{len(reports)} check classes passed")
    return min(failures, 125)


# ---------------------------------------------------------------- parser

def _add_output(sub, formats: tuple[str, str]) -> None:
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None, help="output path ('-' for stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbarrier",
        description="Transmission through a one-dimensional quaternionic potential barrier",
    )
    parser.add_argument("--version", action="version", version=f"qbarrier {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("point", help="evaluate one parameter point")
    p.add_argument("--vc", type=float)
    p.add_argument("--vq", type=float)
    p.add_argument("--theta", type=float, help="potential phase (default 0)")
    p.add_argument("--eps", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lambda-pi", dest="lam_pi", type=float)
    p.add_argument("--physical", nargs=7, type=float, metavar=("V1", "V2", "V3", "L", "M", "HBAR", "E"))
    _add_output(p, ("text", "json"))
    p.set_defaults(func=cmd_point)

    p = subs.add_parser("sweep", help="transmission over an energy or width grid")
    p.add_argument("--mode", choices=("energy", "width"), required=True)
    p.add_argument("--fixed", type=float, help="lam for energy mode, eps for width mode")
    p.add_argument("--fixed-pi", dest="fixed_pi", type=float, help="--fixed in units of pi")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--potentials", default="table")
    _add_output(p, ("csv", "json"))
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("resonances", help="peak locations and spacings")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lambda-pi", dest="lam_pi", type=float)
    p.add_argument("--eps0", type=float)
    p.add_argument("--n", type=int, default=3, help="number of peaks per row")
    p.add_argument("--potentials", default="table")
    _add_output(p, ("text", "json"))
    p.set_defaults(func=cmd_resonances)

    p = subs.add_parser("critical", help="exact threshold (eps=1) amplitudes")
    p.add_argument("--case", required=True, help="'c'/'complex' or 'q'/'quaternionic'")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lambda-pi", dest="lam_pi", type=float)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--series", action="store_true")
    _add_output(p, ("text", "json"))
    p.set_defaults(func=cmd_critical)

    p = subs.add_parser("verify", help="run the self-check suite")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, QBarrierError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SingularSystemError):
            return 5
        return 3 if isinstance(exc, DegenerateEnergyError) else 2


if __name__ == "__main__":
    sys.exit(main())
