"""Golden outputs: the cases, their outputs as text, and the writer.

Each case is a name and a function that returns the text of one output:
``exit <code>``, the stdout of a ``g2flow`` command and, for CSV, the file
it writes and its JSON sidecar; or, for the equivalence maps, one JSON line
of reconstruct_h's residuals.
tests/test_golden.py runs every case and compares it with the stored file.

Regenerate (only when an output changes on purpose, and say why):

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import tempfile
from unittest import mock

import numpy as np

from g2flow import almostabelian as aa
from g2flow import cli, corpus
from g2flow.exterior import act
from g2flow.flow import IntegratorOptions, bracket_flow, reconstruct_h
from g2flow.g2core import G2Structure

HERE = pathlib.Path(__file__).resolve().parent


def _gl7():
    """A fixed, well-conditioned element of GL(7) with negative determinant."""
    h = np.eye(7) + 0.4 * np.random.default_rng(7).normal(size=(7, 7)) / np.sqrt(7)
    h[:, 0] *= -1.0
    return h


def _pairs():
    """(bracket, form) pairs by name."""
    nil = corpus.phi_nilpotent_example()
    m = corpus.random_sl3c(np.random.default_rng(0), 1.0)
    h = _gl7()
    return {
        "nil1001": (corpus.mu_nilpotent(1, 0, 0, 1), nil),
        "nil1234": (corpus.mu_nilpotent(1, 2, 3, 4), nil),
        "n6sol": (aa.bracket_of(aa.AAMatrix.from_complex(corpus.aa_n6_soliton())),
                  aa.phi_almost_abelian()),
        "aagl7": (aa.bracket_of(m).act(h), act(h, aa.phi_almost_abelian())),
    }


def _matrices():
    """6x6 matrices by name."""
    return {
        "rotating": aa.AAMatrix.from_complex(corpus.aa_n6_soliton()),
        "n2": aa.AAMatrix.from_complex(corpus.aa_n2()),
        "diag": aa.AAMatrix.from_complex(corpus.aa_diag(1, -1, 0)),
        "heber": aa.AAMatrix.from_complex(corpus.aa_heber_example()[0]),
        "random": corpus.random_sl3c(np.random.default_rng(3), 1.5),
    }


def run_cli(*argv):
    """`g2flow <argv>`: its exit code and stdout, and with --format csv the
    file it writes and that file's JSON sidecar."""
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "out.csv")
        files = [out, pathlib.Path(f"{out}.json")] if "csv" in argv else []
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv) + (["--out", str(out)] if files else []))
        return f"exit {rc}\n{buf.getvalue()}" + "".join(
            f.read_text() for f in files if f.exists())


def _pair_input(mu, phi, flow="bracket"):
    return json.dumps({"mu": mu.to_json_dict(), "phi": phi.to_json_dict(), "flow": flow})


def _matrix_input(m):
    return json.dumps({"A": m.A.tolist(), "basis": "paper"})


# rk4 runs write CSV and rk45 runs JSON, so both formats are covered at half
# the size; runs stop at t = 0.5, where the rounding of a normalized flow
# near the rotating soliton has not yet grown
_METHODS = {"rk4": ("--method", "rk4", "--h0", "0.01", "--format", "csv"),
            "rk45": ("--method", "rk45", "--format", "json")}


def _flow_case(pair, flow, method, normalize):
    def case():
        mu, phi = _pairs()[pair]
        return run_cli("flow", "--input", _pair_input(mu, phi, flow), "--t-end", "0.5",
                       "--sample-every", "10", "--normalize", normalize, *_METHODS[method])
    return case


def _reconstruct_case(side):
    def case():
        mu, phi = _pairs()["aagl7"]
        opts = IntegratorOptions(t_end=0.5, sample_every=2)
        rec = reconstruct_h(bracket_flow(mu, G2Structure(phi), opts), side=side)
        return json.dumps({
            "status": rec.status, "t": rec.times.tolist(),
            "phi_residual": [s.phi_residual for s in rec.samples],
            "mu_residual": [s.mu_residual for s in rec.samples],
        }) + "\n"
    return case


def _verify():
    """`g2flow verify` with its checks' default seed, whatever G2FLOW_SEED says."""
    with mock.patch.dict(os.environ):
        os.environ.pop("G2FLOW_SEED", None)
        return run_cli("verify")


def cases():
    """Name -> function returning the output text, in a fixed order."""
    out = {"verify": _verify}
    for pair in _pairs():
        for method in _METHODS:
            for normalize in ("none", "unit-bracket-norm"):
                out[f"flow-{pair}-bracket-{method}-{normalize}"] = \
                    _flow_case(pair, "bracket", method, normalize)
            out[f"flow-{pair}-laplacian-{method}"] = \
                _flow_case(pair, "laplacian", method, "none")
        out[f"soliton-{pair}"] = (lambda p=pair: run_cli(
            "soliton", "--input", _pair_input(*_pairs()[p])))
    # a normalized direct flow is refused with a one-line error
    out["flow-nil1001-laplacian-normalized"] = _flow_case(
        "nil1001", "laplacian", "rk45", "unit-bracket-norm")
    for name, m in _matrices().items():
        out[f"aa-classify-{name}"] = (lambda m=m: run_cli(
            "aa-classify", "--input", _matrix_input(m)))
    for name in ("rotating", "random"):
        m = _matrices()[name]
        for method in _METHODS:
            out[f"aa-flow-{name}-{method}"] = (lambda m=m, method=method: run_cli(
                "aa-flow", "--input", _matrix_input(m), "--t-end", "2",
                "--sample-every", "20", *_METHODS[method]))
    out["sweep"] = lambda: run_cli("sweep", "--input", json.dumps(
        {"matrices": [json.loads(_matrix_input(m)) for m in _matrices().values()]}))
    for side in ("i", "ii"):
        out[f"reconstruct-{side}"] = _reconstruct_case(side)
    return out


def path_of(name):
    return HERE / f"{name}.txt"


def main():
    for name, case in cases().items():
        path_of(name).write_text(case())
    total = sum(path_of(name).stat().st_size for name in cases())
    print(f"wrote {len(cases())} golden outputs, {total} bytes")


if __name__ == "__main__":
    main()
