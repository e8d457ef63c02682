import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import fpnreg.fourier as fourier

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_digests.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reads_a_moved_last_bit(monkeypatch, tmp_path, capsys):
    """The tiny grid reads no mismatch against itself, and a float mismatch
    alone when the real part of full_spectrum's last entry moves by one ulp
    (a zero stays zero: a sup moved off 0 would flip an empty set's passed
    flag, an exact change)."""
    sweep = load_sweep()
    base = sweep.sweep(sweep.TINY)
    assert sweep.compare(base, sweep.sweep(sweep.TINY)) == {"exact": [], "float": []}

    exact = fourier.full_spectrum

    def moved(space, values):
        out = exact(space, values)
        out[-1] = complex(out[-1].real * (1 + 2**-52), out[-1].imag)
        return out

    monkeypatch.setattr(fourier, "full_spectrum", moved)
    bad = sweep.compare(base, sweep.sweep(sweep.TINY))
    assert bad["exact"] == [] and bad["float"] and bad["float"][0].startswith("full_spectrum ")

    # the command line: --out writes the digests, --compare exits 0 on float
    # mismatches alone
    monkeypatch.setattr(sweep, "FULL", sweep.TINY)
    assert sweep.main(["--out", str(tmp_path / "moved.json")]) == 0
    monkeypatch.setattr(fourier, "full_spectrum", exact)
    assert sweep.main(["--out", str(tmp_path / "exact.json")]) == 0
    assert sweep.main(["--compare", str(tmp_path / "exact.json"), str(tmp_path / "exact.json")]) == 0
    assert sweep.main(["--compare", str(tmp_path / "exact.json"), str(tmp_path / "moved.json")]) == 0
    out = capsys.readouterr().out
    assert "0 exact mismatches" in out and f"{len(bad['float'])} float mismatches" in out


def test_sweep_reads_a_count_off_by_one(monkeypatch, tmp_path, capsys):
    """A 3AP count one too high is an exact mismatch, and --compare exits 1."""
    sweep = load_sweep()
    from fpnreg import threeap

    monkeypatch.setattr(sweep, "FULL", sweep.TINY)
    assert sweep.main(["--out", str(tmp_path / "exact.json")]) == 0
    count = threeap.count_3aps_fourier
    monkeypatch.setattr(threeap, "count_3aps_fourier", lambda A: count(A) + 1)
    assert sweep.main(["--out", str(tmp_path / "moved.json")]) == 0
    assert sweep.main(["--compare", str(tmp_path / "exact.json"), str(tmp_path / "moved.json")]) == 1
    bad = sweep.compare(*(json.loads((tmp_path / f).read_text())["digests"] for f in ("exact.json", "moved.json")))
    assert bad["float"] == [] and bad["exact"] and all(k.startswith("count_3aps_fourier ") for k in bad["exact"])
    assert f"{len(bad['exact'])} exact mismatches; first: count_3aps_fourier " in capsys.readouterr().out


def test_sweep_fails_when_the_rounding_hook_is_lost(monkeypatch):
    """A 3AP count that no longer rounds through threeap.rounded_count stops
    the sweep instead of digesting an empty list of totals."""
    sweep = load_sweep()
    from fpnreg import threeap
    from fpnreg.vectorspace import DenseSubset, SpaceDescriptor

    A = DenseSubset.full(SpaceDescriptor(3, 2))
    count, totals = sweep._count_3aps(A)
    assert totals.shape == (1,) and count == round(totals[0])

    monkeypatch.setattr(threeap, "count_3aps_fourier", lambda A: fourier.rounded_count(float(count), "3AP count"))
    with pytest.raises(RuntimeError, match="rounded 0 totals"):
        sweep._count_3aps(A)


def test_sweep_fails_when_the_edge_count_hook_is_lost(monkeypatch):
    """edge_count must round one total on its spectral branch and none on
    its direct branch; a spectral edge count that no longer rounds through
    cayley.rounded_count stops the sweep."""
    sweep = load_sweep()
    from fpnreg import cayley
    from fpnreg.vectorspace import DenseSubset, SpaceDescriptor

    space = SpaceDescriptor(3, 2)
    full, point = DenseSubset.full(space), DenseSubset.from_members(space, [4])
    count, totals = sweep._edge_count(full, full, full)  # 81 pairs > 4 N n: spectral
    assert count == 81 and totals.shape == (1,)
    count, totals = sweep._edge_count(point, full, full)  # 9 pairs: direct
    assert count == 9 and totals.shape == (0,)

    monkeypatch.setattr(
        cayley, "edge_count", lambda A, X, Y: fourier.rounded_count(cayley.edge_count_fourier(A, X, Y), "edge count")
    )
    with pytest.raises(RuntimeError, match="rounded 0 totals"):
        sweep._edge_count(full, full, full)
