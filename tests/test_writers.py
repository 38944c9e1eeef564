"""The sweep writers against the plain stdlib forms they reproduce byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbarrier import __version__, barrier
from qbarrier.barrier import AdimensionalBarrier, uniform_grid
from qbarrier.cli import SWEEP_COLUMNS, _fmt, run_sweep
from qbarrier.cli import _csv_text as csv_pieces
from qbarrier.cli import _json_text as json_pieces

META = {"command": "sweep", "mode": "width", "fixed": "1.41421356", "start": "3.14",
        "stop": "14.5", "step": "0.003", "potentials": "1,0,0;0,1,0"}


def rows(grid, sweeps):
    """One 7-tuple per written row: potential-major, grid-ascending."""
    out = []
    for vc, vq, t in sweeps:
        out.extend(zip(grid, [vc] * len(grid), [vq] * len(grid), (np.abs(t) ** 2).tolist(),
                       t.real.tolist(), t.imag.tolist(), np.angle(t).tolist()))
    return out


def reference_json(meta, grid, sweeps):
    payload = {"meta": {"tool": "qbarrier", "version": __version__, **meta,
                        "columns": list(SWEEP_COLUMNS)},
               "rows": [list(row) for row in rows(grid, sweeps)]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def reference_csv(meta, grid, sweeps):
    lines = [f"# qbarrier {__version__}"]
    lines += [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(SWEEP_COLUMNS))
    lines += [",".join(_fmt(v) for v in row) for row in rows(grid, sweeps)]
    return "\n".join(lines) + "\n"


def complex_array(re, im):
    """re + i*im with each component as given: arithmetic would turn 1j*inf's real part to NaN and -0.0 to 0.0."""
    t = np.empty(len(re), complex)
    t.real, t.imag = re, im
    return t


def _csv_text(meta, grid, sweeps):
    return "".join(csv_pieces(meta, grid, sweeps))


def _json_text(meta, grid, sweeps):
    return "".join(json_pieces(meta, grid, sweeps))


def width_sweep(fixed, start, stop, step, *potentials):
    return run_sweep("width", fixed, uniform_grid(start, stop, step),
                     [AdimensionalBarrier(vc, vq) for vc, vq in potentials])


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1]

CASES = {
    "one": ([3.14], [(1.0, 0.0, np.array([0.25 - 0.75j]))]),
    "specials": (SPECIAL, [(math.nan, math.inf, complex_array(SPECIAL, SPECIAL[::-1])),
                           (-0.0, 5e-324, complex_array(SPECIAL[::-1], SPECIAL))]),
    # a thick width grid whose closed form is non-finite, as the CLI writes it
    "nan-sweep": width_sweep(0.5, 798.0, 802.0, 1.0, (0.0, 1.0)),
    "readme-width-sweep": width_sweep(1.41421356, 3.14, 14.5, 0.003, (1.0, 0.0), (0.0, 1.0)),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_json_text_is_the_indent_encoder_output(case):
    assert _json_text(META, *case) == reference_json(META, *case)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_csv_text_is_the_per_value_join(case):
    assert _csv_text(META, *case) == reference_csv(META, *case)


def test_cases_cover_what_they_name():
    grid, sweeps = CASES["readme-width-sweep"]
    assert len(grid) * len(sweeps) == 7574
    assert any(math.isnan(v) for row in rows(*CASES["nan-sweep"]) for v in row)


@pytest.mark.parametrize("pieces, reference", [(csv_pieces, reference_csv), (json_pieces, reference_json)],
                         ids=("csv", "json"))
def test_pieces_join_to_the_text_across_blocks(pieces, reference, monkeypatch):
    # blocks of 4 rows: 14 grid points make 4 pieces per potential, after the head
    monkeypatch.setattr(barrier, "MAX_ENTRIES", 64)
    grid = (3.14 + 0.003 * np.arange(14)).tolist()
    case = run_sweep("width", 1.41421356, np.array(grid),
                     [AdimensionalBarrier(1.0, 0.0), AdimensionalBarrier(0.0, 1.0)])
    written = list(pieces(META, *case))
    assert len(written) == 1 + 2 * 4 + 1
    assert "".join(written) == reference(META, *case)
    one = list(pieces(META, *CASES["one"]))
    assert len(one) == 3 and "".join(one) == reference(META, *CASES["one"])


#: floats the two formats treat specially: non-finite, signed zero, the least subnormal,
#: and both sides of repr's switch to exponent form (at 1e16 and below 1e-4)
EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0,
         1.0000000000000002e16, 1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000001e-05, 1e22]
values = st.one_of(st.sampled_from(EDGES), st.floats())


@st.composite
def sweeps(draw):
    grid = draw(st.lists(values, min_size=1, max_size=40))
    n = len(grid)
    potentials = draw(st.lists(st.tuples(values, values, st.lists(values, min_size=n, max_size=n),
                                         st.lists(values, min_size=n, max_size=n)), min_size=1, max_size=5))
    return grid, [(vc, vq, complex_array(re, im)) for vc, vq, re, im in potentials]


@settings(deadline=None)
@given(sweeps())
def test_writers_are_the_stdlib_forms_on_any_columns(case):
    with np.errstate(all="ignore"):
        assert _csv_text(META, *case) == reference_csv(META, *case)
        assert _json_text(META, *case) == reference_json(META, *case)
