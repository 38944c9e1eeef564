"""The sweep writers against the plain stdlib forms they reproduce byte for byte."""

import json
import math

import pytest

from qbarrier import __version__
from qbarrier.barrier import AdimensionalBarrier, uniform_grid
from qbarrier.cli import SWEEP_COLUMNS, _csv_text, _fmt, _json_text, run_sweep

META = {"command": "sweep", "mode": "width", "fixed": "1.41421356", "start": "3.14",
        "stop": "14.5", "step": "0.003", "potentials": "1,0,0;0,1,0"}


def reference_json(meta, rows):
    payload = {"meta": {"tool": "qbarrier", "version": __version__, **meta,
                        "columns": list(SWEEP_COLUMNS)},
               "rows": [list(row) for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def reference_csv(meta, rows):
    lines = [f"# qbarrier {__version__}"]
    lines += [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(SWEEP_COLUMNS))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_rows(fixed, start, stop, step, *potentials):
    return run_sweep("width", fixed, uniform_grid(start, stop, step).tolist(),
                     [AdimensionalBarrier(vc, vq) for vc, vq in potentials])


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1]

ROWS = {
    "one": [(3.14, 1.0, 0.0, 0.5, 0.25, -0.75, 1.25)],
    "specials": [tuple(SPECIAL), tuple(reversed(SPECIAL)), (1.0, 2.0, 3.0, *SPECIAL[:4])],
    # width-sweep rows whose amplitude columns are NaN, as a non-finite closed form writes them
    "nan-sweep": [(lam, 0.0, 1.0, math.nan, math.nan, math.nan, math.nan)
                  for lam in (798.0, 799.0, 800.0, 801.0, 802.0)],
    "readme-width-sweep": sweep_rows(1.41421356, 3.14, 14.5, 0.003, (1.0, 0.0), (0.0, 1.0)),
}


@pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
def test_json_text_is_the_indent_encoder_output(rows):
    assert _json_text(META, rows) == reference_json(META, rows)


@pytest.mark.parametrize("rows", ROWS.values(), ids=ROWS.keys())
def test_csv_text_is_the_per_value_join(rows):
    assert _csv_text(META, rows) == reference_csv(META, rows)


def test_cases_cover_what_they_name():
    assert len(ROWS["readme-width-sweep"]) == 7574
    assert any(math.isnan(v) for row in ROWS["nan-sweep"] for v in row)
