"""Byte identity of the README commands: the sha256 of what each one writes.

Two sweeps beyond the README pin the other format of each sweep mode,
four `critical --series` commands pin the series regime limits, and five
JSON reports pin the other format of `point`, `resonances` and `critical`.

A change that moves any printed digit fails here.  Where a change moves
digits on purpose, CHANGES.md lists the old and the new hash and says why.
"""

import hashlib

import pytest

from qbarrier.cli import main

README_COMMANDS = [
    pytest.param(["point", "--vc", "0", "--vq", "1", "--theta", "0", "--eps", "1.2", "--lambda", "3"],
                 "c3b19359b6f5c03fa55eb92b8a6b2d9ef9aa0fbf8020e54ac19b7e16ff523fff", id="point"),
    pytest.param(["point", "--physical", "1", "0", "0", "9.42477796", "1", "1", "2"],
                 "f2689b2899eb595febfb277b2604bcd2a4dec3c3b44fcbb4d98031a34e4ff910", id="point-physical"),
    pytest.param(["sweep", "--mode", "energy", "--fixed-pi", "3", "--start", "1.001", "--stop", "1.5",
                  "--step", "0.001"],
                 "3cf37595e3b8ad6f58ca499610c91e4cbccba306aa9b05f075a65d8fd0d2c7da", id="sweep-energy"),
    pytest.param(["resonances", "--lambda-pi", "3", "--potentials", "table"],
                 "2dbfd7befb8f84eb7951e19aac00c4adf068521ae9cc81b01c774443490ce154", id="resonances-energy"),
    pytest.param(["resonances", "--eps0", "1.41421356", "--potentials", "table"],
                 "e01ff48c1289968f93c45725a476ed88f07eb9cbc6114bb1e8a76492b8c7328d", id="resonances-width"),
    pytest.param(["critical", "--case", "q", "--lambda", "2", "--theta", "0.4"],
                 "51fa18c34f4970258bfff4ee30be466340c3eb402298e2c5d0f0ee094a5775eb", id="critical-q"),
    pytest.param(["critical", "--case", "c", "--lambda", "0.1", "--series"],
                 "f7fc29fe98f33c4e89b2353d5da86704235609b8a5c8171e4be2079c87d0357e", id="critical-c-series"),
    pytest.param(["verify", "--seed", "42", "--samples", "500"],
                 "0518025986475a0e7a96a2388cc3b574dd518d2e33e44d72dbb2aa7abeee8c57", id="verify"),
]

#: each sweep mode in the format its README command does not use
SWEEP_FORMATS = [
    pytest.param(["sweep", "--mode", "energy", "--fixed-pi", "3", "--start", "1.001", "--stop", "1.5",
                  "--step", "0.001", "--format", "json"],
                 "3fd0f7ac63cd7d0b8e79e2eeb8dad8a3549d20742756b4bb32b111388a2d416a", id="sweep-energy-json"),
    pytest.param(["sweep", "--mode", "width", "--fixed", "1.41421356", "--start", "3.14", "--stop", "14.5",
                  "--step", "0.003", "--potentials", "1,0;0,1"],
                 "45ff945f8fe05287c32acc1059bfeeaebbd6478945ab399207095aa1afccb946", id="sweep-width-csv"),
]

#: the series line on each side of both regime limits (thin below 0.3, thick above 10)
SERIES_REGIMES = [
    pytest.param(["critical", "--case", "c", "--lambda", "2", "--series"],
                 "1d258dce694a0a8adf80c07733c3f35f90af919d6fd66243b637203d497c4559", id="series-c-2"),
    pytest.param(["critical", "--case", "c", "--lambda", "0.3", "--series"],
                 "bccbce9db057e3d8ec7245a157ed472fb9d3547b549e5ef13293f5baf63e96f0", id="series-c-0.3"),
    pytest.param(["critical", "--case", "q", "--lambda", "10", "--series"],
                 "8609dc1678d25c69550a46d2df78f5491680784194aaa89503099c687d6bba84", id="series-q-10"),
    pytest.param(["critical", "--case", "q", "--lambda", "40", "--series"],
                 "298190bdb8f722f19a504150ea5aeb25a894085b5f05bd0be7c8aca2aaff636a", id="series-q-40"),
]

#: the JSON form of the commands whose report the text form lays out
JSON_REPORTS = [
    pytest.param(["resonances", "--lambda-pi", "3", "--potentials", "table", "--format", "json"],
                 "747a5dcb28cf77bf5247c27b8411e296fabd573daef4743f1131c51845e8cd25",
                 id="resonances-energy-json"),
    pytest.param(["resonances", "--eps0", "1.41421356", "--potentials", "table", "--format", "json"],
                 "ddd34db43fbd44a8fa75d5a7656003ffbe35af508a6906bfceb952c42a5687a6",
                 id="resonances-width-json"),
    pytest.param(["point", "--vc", "0", "--vq", "1", "--theta", "0", "--eps", "1.2", "--lambda", "3",
                  "--format", "json"],
                 "99cca671f2e49e27e7b3851c110b3ca42a6b2fc7be487f625ddc593c4a1d410b", id="point-json"),
    pytest.param(["point", "--vc", "0", "--vq", "1", "--eps", "1.2", "--lambda", "0", "--format", "json"],
                 "4e2946f30c83a652789b40823109b957c25d3486263d32f07cc60205539a718d",
                 id="point-free-json"),
    pytest.param(["critical", "--case", "q", "--lambda", "2", "--theta", "0.4", "--format", "json"],
                 "aece01b2dd633a21daca09951e7762522e8119ac09d62a954705f650d9233ba1", id="critical-q-json"),
]

#: the README width sweep writes its JSON to a file and nothing to stdout
WIDTH_SWEEP = ["sweep", "--mode", "width", "--fixed", "1.41421356", "--start", "3.14",
               "--stop", "14.5", "--step", "0.003", "--potentials", "1,0;0,1", "--format", "json"]
WIDTHS_JSON = "d2bef3d7d7f69e9349e761cc88d84bedbd5f0535f699fb4b7d0aa6adc619ccb6"
EMPTY = hashlib.sha256(b"").hexdigest()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, digest", README_COMMANDS + SWEEP_FORMATS + SERIES_REGIMES + JSON_REPORTS)
def test_readme_command_stdout_is_pinned(argv, digest, capsys):
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_readme_width_sweep_file_is_pinned(tmp_path, capsys):
    out = tmp_path / "widths.json"
    assert main(WIDTH_SWEEP + ["--out", str(out)]) == 0
    assert sha256(capsys.readouterr().out) == EMPTY
    assert sha256(out.read_text(encoding="utf-8")) == WIDTHS_JSON
