import argparse
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


def test_parser_is_built_once_and_carries_no_options_over(capsys, tmp_path,
                                                         monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        payload = json.dumps({
            "mu": corpus.mu_nilpotent(1.0, 0.0, 0.0, 1.0).to_json_dict(),
            "phi": corpus.phi_nilpotent_example().to_json_dict(),
        })
        plain = ["flow", "--input", payload, "--t-end", "0.05"]
        counts, sidecars = [], []
        for name, extra in [
            ("a.csv", []),
            ("b.csv", ["--method", "rk4", "--normalize", "unit-bracket-norm",
                       "--h0", "0.01", "--sample-every", "3", "--atol", "1e-6"]),
            ("c.csv", []),
        ]:
            out_path = tmp_path / name
            code, _ = run(capsys, *plain, *extra, "--out", str(out_path))
            assert code == 0
            counts.append(len(built))
            sidecars.append(json.loads((tmp_path / (name + ".json")).read_text()))
        # only the first call builds parsers
        assert counts[0] > 0 and counts == [counts[0]] * 3
        assert sidecars[1]["options"]["method"] == "rk4"
        assert sidecars[1]["options"]["normalize"] == "unit-bracket-norm"
        assert sidecars[2]["options"]["method"] == "rk45"
        assert sidecars[2]["options"]["normalize"] == "none"
        assert sidecars[2]["options"] == sidecars[0]["options"]
        # a parse error after a good call is still argparse's exit 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", "--method", "rk5"])
        assert exc.value.code == 2
        assert "invalid choice: 'rk5'" in capsys.readouterr().err
        assert len(built) == counts[0]
    finally:
        cli._build_parser.cache_clear()


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


@pytest.mark.parametrize("command, payload, message", [
    ("flow", {"mu": {"c": [{"i": 1, "j": 2, "k": 5, "v": float("nan")}]}},
     "structure constants must be finite"),
    ("aa-flow", {"B": [[float("nan"), 1, 0], [0, 0, 1], [0, 0, 0]]},
     "matrix entries must be finite"),
], ids=["flow", "aa-flow"])
def test_non_finite_input_is_an_invalid_bracket(capsys, command, payload, message):
    # json reads NaN; it must fail as bad input, not deep inside a solver
    code, out = run(capsys, command, "--input", json.dumps(payload))
    assert code == 1
    assert json.loads(out)["error"] == {"type": "InvalidBracket", "message": message}


@pytest.mark.parametrize("flow", ["bracket", "laplacian"])
@pytest.mark.parametrize("phi, error", [
    ({"degree": 3, "terms": [{"idx": [1, 2, 3], "c": 1}]},
     {"type": "PositivityError", "message": "induced bilinear form is not definite"}),
    ({"degree": 2, "terms": [{"idx": [1, 2], "c": 1}]},
     {"type": "ValueError", "message": "a structure is built from a 3-form"}),
], ids=["not-positive", "not-a-3-form"])
def test_a_form_without_a_metric_is_the_same_error_for_both_flows(capsys, flow, phi, error):
    # the direct flow builds no G2Structure up front; its first metric fails
    # with the error of the bracket flow's structure
    payload = json.dumps({"mu": corpus.mu_nilpotent(1, 0, 0, 1).to_json_dict(),
                          "phi": phi, "flow": flow})
    code, out = run(capsys, "flow", "--input", payload)
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out)["error"] == error


_PHI_TERM = '{"degree": 3, "terms": [{"idx": %s, "c": 1}]}'


@pytest.mark.parametrize("command, text, error, names", [
    ("flow", '{"mu": {"c": 5}}', "InvalidBracket", None),
    ("flow", '{"mu": {"c": [1]}}', "InvalidBracket", None),
    ("flow", "[1, 2]", "ValueError", None),
    ("sweep", '{"matrices": 5}', "ValueError", None),
    ("soliton", '{"mu": {"c": [{"i": [1], "j": 2, "k": 5, "v": 1}]}}', "InvalidBracket", "c[0]"),
    ("soliton", '{"mu": {"c": [{"i": 1, "j": 2, "k": 5, "v": null}]}}', "InvalidBracket", "c[0]"),
    ("soliton", '{"mu": {"c": [{"i": 1, "j": 2, "k": 5, "v": 1}, {"i": 1.5, "j": 2, "k": 5, "v": 1}]}}',
     "InvalidBracket", "c[1]"),
    ("soliton", '{"mu": {"c": [{"i": 1, "j": 2, "k": "5", "v": 1}]}}', "InvalidBracket", "c[0]"),
    ("soliton", '{"mu": {"c": [{"i": 1, "j": 2, "k": 5, "v": 1%s}]}}' % ("0" * 400),
     "InvalidBracket", "c[0]"),
    ("soliton", '{"mu": {"c": []}, "phi": %s}' % (_PHI_TERM % "5"), "ValueError", "terms[0]"),
    ("soliton", '{"mu": {"c": []}, "phi": %s}' % (_PHI_TERM % "[1, 2, 9]"), "ValueError", "terms[0]"),
    ("soliton", '{"mu": {"c": []}, "phi": {"degree": 9, "terms": []}}', "ValueError", "degree"),
    # a repeated term is an error, whether its index set is written in the
    # same order or permuted
    ("soliton", '{"mu": {"c": []}, "phi": {"degree": 3, "terms": [{"idx": [1, 2, 3], "c": 1}, '
     '{"idx": [1, 2, 3], "c": 2}]}}', "ValueError", "terms[1]"),
    ("soliton", '{"mu": {"c": []}, "phi": {"degree": 3, "terms": [{"idx": [1, 2, 3], "c": 1}, '
     '{"idx": [2, 1, 3], "c": 2}]}}', "ValueError", "terms[1]"),
    ("soliton", '{"mu": {"c": [{"i": 1, "j": 2, "k": 5, "v": 1}, {"i": 1, "j": 2, "k": 5, "v": 2}]}}',
     "InvalidBracket", "c[1]"),
], ids=["c-not-a-list", "c-not-objects", "file-not-an-object", "matrices-not-a-list",
        "index-a-list", "value-null", "index-not-integral", "index-a-string",
        "value-beyond-float", "idx-not-a-list", "idx-out-of-range", "degree-out-of-range",
        "idx-repeated", "idx-repeated-permuted", "ijk-repeated"])
def test_json_of_the_wrong_shape_is_a_one_line_error(capsys, tmp_path, command, text, error,
                                                     names):
    # inline JSON must start with "{", so the list goes through a file
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out = run(capsys, command, "--input", str(path))
    assert code == 1
    assert out.count("\n") == 1
    doc = json.loads(out)["error"]
    assert doc["type"] == error
    assert names is None or names in doc["message"]


@pytest.mark.parametrize("argv", [["soliton"], ["flow", "--t-end", "0.5", "--format", "json"]],
                         ids=["soliton", "flow"])
def test_one_derivation_svd_per_run(capsys, monkeypatch, argv):
    # both detectors reach the fit on the closed rotating soliton, and share
    # the derivation space cached on the bracket
    svd, shapes = np.linalg.svd, []

    def counting_svd(a, *args, **kw):
        shapes.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    mu = aa.bracket_of(aa.AAMatrix.from_complex(corpus.aa_n6_soliton()))
    payload = json.dumps({"mu": mu.to_json_dict(), "phi": aa.phi_almost_abelian().to_json_dict()})
    code, out = run(capsys, *argv, "--input", payload)
    assert code == 0
    doc = json.loads(out)
    assert doc.get("certificates", doc)["semi_algebraic"]["kind"] == "semi-algebraic"
    assert shapes.count((343, 49)) == 1
