import importlib.util
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
    """The tiny grid reads no mismatch against itself and at least one when
    full_spectrum's last entry moves by one ulp."""
    sweep = load_sweep()
    base = sweep.sweep(sweep.TINY)
    assert sweep.compare(base, sweep.sweep(sweep.TINY)) == (None, 0)

    exact = fourier.full_spectrum

    def moved(space, values):
        out = exact(space, values)
        out[-1] = complex(np.nextafter(out[-1].real, np.inf), out[-1].imag)
        return out

    monkeypatch.setattr(fourier, "full_spectrum", moved)
    first, count = sweep.compare(base, sweep.sweep(sweep.TINY))
    assert count >= 1 and first.startswith("full_spectrum ")

    # the command line: --out writes the digests, --compare exits 1 on a mismatch
    monkeypatch.setattr(sweep, "FULL", sweep.TINY)
    assert sweep.main(["--out", str(tmp_path / "moved.json")]) == 0
    monkeypatch.setattr(fourier, "full_spectrum", exact)
    assert sweep.main(["--out", str(tmp_path / "exact.json")]) == 0
    assert sweep.main(["--compare", str(tmp_path / "exact.json"), str(tmp_path / "exact.json")]) == 0
    assert sweep.main(["--compare", str(tmp_path / "exact.json"), str(tmp_path / "moved.json")]) == 1
    assert f"{count} mismatches" in capsys.readouterr().out


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
