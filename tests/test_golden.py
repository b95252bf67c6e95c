"""regen-golden reproduces the committed reference CSVs under golden/."""

from pathlib import Path

import pytest

from invsq.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
REL_TOL = 1e-8


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _same_field(a, b):
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return a == b
    return x == pytest.approx(y, rel=REL_TOL, abs=0.0)


def test_regen_golden_reproduces_committed_csvs(tmp_path, capsys):
    assert main(["regen-golden", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in GOLDEN.glob("*.csv"))
    assert names and names == sorted(p.name for p in tmp_path.glob("*.csv"))
    for name in names:
        want = (GOLDEN / name).read_text().splitlines()
        got = (tmp_path / name).read_text().splitlines()
        assert len(got) == len(want), name
        for w, g in zip(want, got):
            if w.startswith("#"):
                # provenance "# key = value": same key, value within REL_TOL
                wk, _, wv = w.partition(" = ")
                gk, _, gv = g.partition(" = ")
                assert gk == wk and _same_field(wv, gv), (name, w, g)
            else:
                wf, gf = w.split(","), g.split(",")
                assert len(gf) == len(wf) and all(map(_same_field, wf, gf)), (name, w, g)
