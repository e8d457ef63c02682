import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpnreg
from fpnreg.cli import main
from fpnreg.vectorspace import subset_from_dict


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"p": 3, "n": 2, "members": [0, 1, 2]}))
    return str(path)


def run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestRegularize:
    def test_worked_example(self, capsys, line_file):
        status, out, err = run(
            capsys,
            ["regularize", "--p", "3", "--n", "2", "--set", line_file, "--eps", "0.5", "--alpha", "1.0"],
        )
        assert status == 0
        rep = json.loads(out)
        assert rep["result"]["energy_trace"] == [1.0, 3.0]
        assert rep["result"]["iterations"] == 1
        assert rep["result"]["H_final"]["rows"] == [[1, 0]]
        assert rep["result"]["stop_reason"] == "regular"
        assert rep["command"] == "regularize"
        assert "completed in" in err

    def test_rows_schema(self, capsys, line_file):
        status, out, _ = run(
            capsys, ["regularize", "--set", line_file, "--eps", "0.5", "--alpha", "1.0", "--format", "rows"]
        )
        lines = out.splitlines()
        assert lines[0] == "step,H_size,index,energy,irregular_mass"
        assert lines[1] == "0,9,1,1.0,9"
        assert lines[2] == "1,3,3,3.0,0"

    def test_space_mismatch_rejected(self, capsys, line_file):
        status, _, err = run(
            capsys, ["regularize", "--p", "3", "--n", "3", "--set", line_file, "--eps", "0.5", "--alpha", "1.0"]
        )
        assert status == 2 and "disagree" in err

    def test_index_bounds_surfaced(self, capsys, line_file):
        _, out, _ = run(capsys, ["regularize", "--set", line_file, "--eps", "0.5", "--alpha", "1.0"])
        rep = json.loads(out)
        assert rep["result"]["proof_index_bound"]["t"] == 32
        assert rep["result"]["statement_index_bound"]["t"] == 16
        assert rep["result"]["proof_index_bound"]["value"] == "overflow"


class TestTower:
    def test_overflow_marker(self, capsys):
        status, out, _ = run(capsys, ["tower", "--p", "3", "--t", "3"])
        assert status == 0
        assert json.loads(out)["result"]["value"] == "overflow"

    def test_exact_values(self, capsys):
        _, out, _ = run(capsys, ["tower", "--p", "3", "--t", "2"])
        assert json.loads(out)["result"]["value"] == 46656


class TestFourierCheck:
    def test_residuals_small(self, capsys):
        status, out, _ = run(
            capsys, ["fourier-check", "--p", "3", "--n", "4", "--trials", "50", "--seed", "7"]
        )
        assert status == 0
        rep = json.loads(out)
        assert rep["result"]["overall_max"] <= 1e-9
        assert rep["result"]["trials"] == 50

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["fourier-check", "--p", "3", "--n", "4", "--trials", "5"])


class TestErrors:
    def test_bad_eps(self, capsys, line_file):
        status, _, err = run(capsys, ["regularize", "--set", line_file, "--eps", "1.5", "--alpha", "1.0"])
        assert status == 2 and "eps" in err

    def test_malformed_json_line_referenced(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p": 3,\n "n": 2')
        status, _, err = run(capsys, ["roth-count", "--set", str(bad)])
        assert status == 2
        assert ":2:" in err  # line number of the failure

    def test_oversized_space(self, capsys):
        status, _, err = run(capsys, ["fourier-check", "--p", "13", "--n", "12", "--trials", "1", "--seed", "1"])
        assert status == 2 and "cap" in err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["tower", "--p", "3", "--t", "1", "--frobnicate"])


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path, line_file):
        argv = ["density-test", "--set", line_file, "--alpha", "0.67", "--trials", "10", "--seed", "3"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_echo_reproduces(self, capsys, line_file):
        argv = ["density-test", "--set", line_file, "--alpha", "0.67", "--trials", "5", "--seed", "9"]
        _, out1, _ = run(capsys, argv)
        echo = json.loads(out1)["config"]
        argv2 = [
            "density-test", "--set", echo["set"], "--alpha", str(echo["alpha"]),
            "--trials", str(echo["trials"]), "--seed", str(echo["seed"]),
        ]
        _, out2, _ = run(capsys, argv2)
        assert out1 == out2

    def test_input_file_not_mutated(self, capsys, line_file):
        before = open(line_file).read()
        run(capsys, ["roth-count", "--set", line_file])
        assert open(line_file).read() == before


class TestSubcommands:
    def test_roth_count(self, capsys, line_file):
        _, out, _ = run(capsys, ["roth-count", "--set", line_file])
        rep = json.loads(out)["result"]
        assert rep["total_naive"] == 9 and rep["total_fourier"] == 9
        assert rep["nontrivial"] == 6 and rep["agree"]
        assert rep["first_triple"] == {"a": 0, "d": 1}

    def test_capset(self, capsys):
        _, out, _ = run(capsys, ["capset", "--p", "3", "--n", "2"])
        rep = json.loads(out)["result"]
        assert rep["max_size"] == 4 and rep["witness_verified"]
        subset = subset_from_dict(rep["witness"])
        assert subset.card == 4

    def test_sigma_cert(self, capsys, tmp_path):
        gen = np.random.default_rng(0)
        members = sorted(int(x) for x in gen.choice(3**8, size=3**8 // 2, replace=False))
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"p": 3, "n": 8, "members": members}))
        _, out, _ = run(capsys, ["sigma-cert", "--set", str(path), "--sigma", "0.1", "--delta", "0.5"])
        rep = json.loads(out)["result"]
        assert rep["passed"] is True

    def test_klr11_synthetic(self, capsys):
        _, out, _ = run(
            capsys,
            ["klr11", "--graph", "empty", "--u", "30", "--t1", "3", "--t2", "3",
             "--adversary", "greedy", "--trials", "20", "--seed", "4"],
        )
        assert json.loads(out)["result"]["no_edge_freq"] == 1.0

    def test_klr11_petal(self, capsys, line_file):
        _, out, _ = run(
            capsys,
            ["klr11", "--set", line_file, "--t1", "2", "--t2", "2",
             "--trials", "20", "--seed", "4"],
        )
        rep = json.loads(out)["result"]
        assert rep["u"] == 9 and 0.0 <= rep["no_edge_freq"] <= 1.0

    def test_density_failure(self, capsys):
        _, out, _ = run(
            capsys,
            ["density-failure", "--p", "3", "--n", "2", "--r", "9", "--alpha", "0.42",
             "--outer", "2", "--inner", "10", "--seed", "3"],
        )
        rep = json.loads(out)["result"]
        assert rep["failure_freq"] == 1.0

    def test_flower_find(self, capsys, tmp_path):
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"p": 3, "n": 3, "members": list(range(27))}))
        _, out, _ = run(
            capsys,
            ["flower-find", "--set", str(path), "--m", "3", "--eps", "0.4",
             "--alpha", "1.0"],
        )
        rep = json.loads(out)["result"]
        assert rep["found"] is True
        assert len(rep["flower"]["petals"]) >= 1

    def test_tail_bound(self, capsys):
        _, out, _ = run(
            capsys,
            ["tail-bound", "--p", "3", "--n", "4", "--q", "0.2", "--lam", "8",
             "--xi", "1", "--trials", "100", "--seed", "2", "--r", "16"],
        )
        rep = json.loads(out)["result"]
        assert rep["passed"] is True
        assert "optimized" in rep

    def test_regularize_multi(self, capsys, tmp_path):
        path = tmp_path / "two_lines.json"
        path.write_text(json.dumps({"p": 3, "n": 2, "members": [0, 1, 2, 3, 4, 5]}))
        _, out, _ = run(
            capsys,
            ["regularize-multi", "--set", str(path), "--m", "2", "--eps", "0.5", "--alpha", "1.0"],
        )
        rep = json.loads(out)["result"]
        assert rep["succeeded"] is True
        assert rep["parts_regular"] == [True, True]

    def test_inline_members(self, capsys):
        _, out, _ = run(capsys, ["roth-count", "--p", "3", "--n", "2", "--members", "0,1,2"])
        assert json.loads(out)["result"]["total_naive"] == 9


class TestBatch:
    def test_manifest_runs(self, capsys, tmp_path):
        t1 = tmp_path / "t1.json"
        t2 = tmp_path / "t2.json"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"runs": [
            ["tower", "--p", "3", "--t", "1", "--out", str(t1)],
            ["tower", "--p", "5", "--t", "2", "--out", str(t2)],
        ]}))
        status, _, _ = run(capsys, ["batch", "--manifest", str(manifest)])
        assert status == 0
        assert json.loads(t1.read_text())["result"]["value"] == 6
        assert json.loads(t2.read_text())["result"]["value"] == 10**10

    def test_bad_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"runs": "nope"}))
        status, _, err = run(capsys, ["batch", "--manifest", str(manifest)])
        assert status == 2


def test_import_loads_no_scipy():
    # importing scipy.fft takes ~0.34 s on a 2-core VM, which every CLI start would pay
    src = str(Path(fpnreg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fpnreg; print(fpnreg.__file__); print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    path, loaded = out.stdout.splitlines()
    assert path == fpnreg.__file__
    assert loaded == "[]"


@pytest.mark.parametrize("script", ["regularity_demo.py", "calibration_pilots.py"])
def test_script_runs(script):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
