import json

import numpy as np
import pytest

from g2flow import cli
from g2flow import corpus
from g2flow import almostabelian as aa


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("corpus checks passed")


def test_aa_classify_rotating_soliton(capsys):
    payload = json.dumps({"B": [[0, 1, 0], [0, 0, 2 ** 0.5], [0, 0, 0]]})
    code, out = run(capsys, "aa-classify", "--input", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "semi-algebraic"
    assert abs(doc["c"] + 3.0) < 1e-9
    assert abs(doc["d"] - 1.0) < 1e-9


def test_aa_classify_natural_basis_round_trip(capsys):
    m = aa.AAMatrix.from_complex(corpus.aa_diag(1, -1, 0))
    payload = json.dumps({"A": m.natural.tolist(), "basis": "natural"})
    code, out = run(capsys, "aa-classify", "--input", payload)
    assert code == 0
    assert json.loads(out)["kind"] == "algebraic"


def test_aa_flow_zero_matrix_constant(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    payload = json.dumps({"A": np.zeros((6, 6)).tolist()})
    code, _ = run(capsys, "aa-flow", "--input", payload, "--t-end", "1.0",
                  "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "# g2flow-csv v1"
    assert lines[1].split(",")[:4] == ["t", "|mu|", "R", "|tau|"]
    for line in lines[2:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[1] == 0.0  # |mu| stays zero
    sidecar = json.loads((tmp_path / "traj.csv.json").read_text())
    assert sidecar["status"] == "completed"


def test_flow_deterministic_fixed_step(capsys, tmp_path):
    mu = corpus.mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    payload = json.dumps({
        "mu": mu.to_json_dict(),
        "phi": corpus.phi_nilpotent_example().to_json_dict(),
    })
    texts = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        code, _ = run(capsys, "flow", "--input", payload, "--method", "rk4",
                      "--h0", "0.01", "--t-end", "0.5", "--out", str(out_path))
        assert code == 0
        texts.append(out_path.read_bytes())
    assert texts[0] == texts[1]


def test_flow_json_format_includes_certificates(capsys):
    mu = corpus.mu_nilpotent(1.0, 0.0, 0.0, 1.0)
    payload = json.dumps({
        "mu": mu.to_json_dict(),
        "phi": corpus.phi_nilpotent_example().to_json_dict(),
    })
    code, out = run(capsys, "flow", "--input", payload, "--format", "json",
                    "--t-end", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"]["algebraic"]["kind"] == "algebraic"
    assert abs(doc["certificates"]["algebraic"]["c"] + 5 / 3) < 1e-9
    assert doc["certificates"]["semi_algebraic"]["kind"] == "semi-algebraic"
    assert doc["laplacian_flow_diagonal"] is True
    assert len(doc["rows"][0]) == 4 + 49


def test_flow_laplacian_variant(capsys):
    payload = json.dumps({
        "mu": corpus.mu_nilpotent(1.0, 0.0, 0.0, 1.0).to_json_dict(),
        "phi": corpus.phi_nilpotent_example().to_json_dict(),
        "flow": "laplacian",
    })
    code, out = run(capsys, "flow", "--input", payload, "--format", "json",
                    "--t-end", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["flow"] == "laplacian" and doc["status"] == "completed"
    assert len(doc["rows"]) >= 2


def test_soliton_command(capsys):
    payload = json.dumps({
        "mu": corpus.mu_nilpotent(1.0, 0.0, 0.0, 1.0).to_json_dict(),
        "phi": corpus.phi_nilpotent_example().to_json_dict(),
    })
    code, out = run(capsys, "soliton", "--input", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc["algebraic"]["kind"] == "algebraic"
    assert doc["algebraic"]["label"] == "expanding"


def test_sweep_grid(capsys):
    mats = [
        {"B": np.zeros((3, 3)).tolist()},
        {"B": [[0, 1, 0], [0, 0, 2 ** 0.5], [0, 0, 0]]},
        {"B": np.diag([1.0, -1.0, 0.0]).tolist()},
    ]
    code, out = run(capsys, "sweep", "--input", json.dumps({"matrices": mats}))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# g2flow-csv v1"
    assert lines[1] == "index,kind,c,R,|tau|"
    kinds = [line.split(",")[1] for line in lines[2:]]
    assert kinds == ["torsion-free", "semi-algebraic", "algebraic"]


def test_parse_error_is_machine_readable(capsys):
    code, out = run(capsys, "aa-classify", "--input", "{bad json")
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc and doc["error"]["type"]


def test_precondition_error_is_machine_readable(capsys, rng):
    A = rng.normal(size=(6, 6))
    code, out = run(capsys, "aa-classify", "--input",
                    json.dumps({"A": A.tolist()}))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotClosed"


def test_missing_input_errors(capsys):
    code, out = run(capsys, "soliton")
    assert code == 1
    assert "error" in json.loads(out)


def test_verify_counts_any_exception_as_a_failure(capsys, monkeypatch):
    def singular():
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(corpus, "build_verify_corpus",
                        lambda: [("singular", singular), ("fine", lambda: 0.0)])
    code, out = run(capsys, "verify")
    assert code == 2
    lines = out.strip().split("\n")
    assert [line.split()[0] for line in lines[:2]] == ["FAIL", "PASS"]
    assert "LinAlgError: SVD did not converge" in lines[0]
    assert lines[2] == "1/2 corpus checks passed"


@pytest.mark.parametrize("argv", [
    ["soliton", "--input", json.dumps({
        "mu": corpus.mu_nilpotent(1.0, 0.0, 0.0, 1.0).to_json_dict(),
        "phi": corpus.phi_nilpotent_example().to_json_dict()})],
    ["aa-classify", "--input", json.dumps({"B": np.diag([1.0, -1.0, 0.0]).tolist()})],
    ["sweep", "--input", json.dumps({"matrices": [{"B": np.zeros((3, 3)).tolist()}]})],
])
def test_out_file_is_written_and_closed(capsys, tmp_path, argv):
    # an unclosed file fails this test through the ResourceWarning filter
    out_path = tmp_path / "out.txt"
    code, out = run(capsys, *argv, "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().endswith("\n")


@pytest.mark.parametrize("argv", [
    ["soliton", "--t-end", "1"],
    ["sweep", "--jobs", "2"],
    ["aa-classify", "--method", "rk4"],
    ["aa-flow", "--normalize", "unit-bracket-norm"],
    ["verify", "--input", "{}"],
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


def test_aa_flow_nearly_imaginary_spectrum_completes(capsys):
    # the flow barely contracts and drifts about 1e-9 out of sl(3,C), more
    # than the membership tolerance; the run must not re-check each sample
    x = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    y = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    z = 2.0 * (0.05 * x + np.sqrt(1 - 0.05 ** 2) * 1j * y)
    B = np.diag(z)
    payload = json.dumps({"B": B.real.tolist(), "C": B.imag.tolist()})
    code, out = run(capsys, "aa-flow", "--input", payload, "--t-end", "50",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "completed"
    assert doc["rows"][-1][0] == 50.0
