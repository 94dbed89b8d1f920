"""Command-line front end: run flows, classify solitons, sweep parameter
grids, and execute the built-in verification corpus.

Output formats: CSV trajectories carry the schema comment "# g2flow-csv v1"
followed by the header t,|mu|,R,|tau|,Q_11..Q_77; JSON output mirrors the
same data plus options and certificates.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import almostabelian as aa
from . import corpus
from .errors import G2FlowError
from .exterior import KForm, is_object_list, phi_canonical
from .flow import (
    IntegratorOptions,
    bracket_flow,
    detect_algebraic,
    detect_semialgebraic,
    laplacian_flow,
    lf_diagonal_test,
)
from .g2core import G2Structure
from .liealg import LieBracket

CSV_SCHEMA = "# g2flow-csv v1"


def _fmt(x) -> str:
    return repr(float(x))


def _load_input(arg):
    if arg is None:
        raise ValueError("--input is required for this command")
    if arg.lstrip().startswith("{"):
        data = json.loads(arg)
    else:
        with open(arg) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _bracket_from_input(data):
    payload = data.get("mu", data)
    mu = LieBracket.from_json_dict(payload)
    if "phi" in data:
        phi = KForm.from_json_dict(data["phi"])
    else:
        phi = phi_canonical()
    return mu, phi


def _aamatrix_from_input(data):
    if "A" in data:
        return aa.AAMatrix.from_matrix(np.array(data["A"], dtype=float),
                                       basis=data.get("basis", "paper"))
    if "B" in data:
        B = np.array(data["B"], dtype=float)
        C = np.array(data.get("C", np.zeros((3, 3))), dtype=float)
        return aa.AAMatrix.from_complex(B, C)
    raise ValueError("matrix input needs key 'A' (6x6) or 'B'/'C' (3x3)")


def _options_from_args(args) -> IntegratorOptions:
    fields = {f.name for f in dataclasses.fields(IntegratorOptions)}
    return IntegratorOptions(**{k: v for k, v in vars(args).items() if k in fields})


def _certificate_dict(cert):
    out = {"kind": cert.kind, "c": None if math.isnan(cert.c) else cert.c,
           "residual": cert.residual, "label": cert.label}
    if cert.D is not None and np.all(np.isfinite(cert.D)):
        out["D"] = np.asarray(cert.D).tolist()
    return out


def _certificates(mu, s) -> dict:
    """Both soliton certificates; a detector that refuses the input reports
    its error in place of a certificate."""
    out = {"algebraic": _certificate_dict(detect_algebraic(mu, s))}
    try:
        out["semi_algebraic"] = _certificate_dict(detect_semialgebraic(mu, s))
    except G2FlowError as exc:
        out["semi_algebraic"] = {"error": str(exc)}
    return out


def _write(path, text):
    """Write text to the file path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def _emit(args, traj, sidecar):
    """Write a trajectory's rows, and its sidecar next to a CSV file."""
    rows = [[smp.t, smp.norm_mu, smp.R, smp.torsion_norm]
            + list(np.asarray(smp.Q).reshape(-1)) for smp in traj.samples]
    if args.format == "csv":
        header = ["t", "|mu|", "R", "|tau|"] + \
                 [f"Q_{i}{j}" for i in range(1, 8) for j in range(1, 8)]
        lines = [CSV_SCHEMA, ",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write(args.out, "\n".join(lines) + "\n")
        if args.out:
            _write(args.out + ".json", _json_text(sidecar))
    else:
        _write(args.out, _json_text({**sidecar, "rows": rows}))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _options_dict(opts: IntegratorOptions) -> dict:
    d = dataclasses.asdict(opts)
    if math.isinf(d["hmax"]):
        d["hmax"] = None
    return d


def cmd_flow(args):
    data = _load_input(args.input)
    mu, phi = _bracket_from_input(data)
    opts = _options_from_args(args)
    kind = data.get("flow", "bracket")
    if kind == "laplacian":
        traj = laplacian_flow(phi, mu, opts)
    else:
        s = G2Structure(phi)
        traj = bracket_flow(mu, s, opts)
    sidecar = {
        "command": "flow", "flow": kind, "status": traj.status,
        "options": _options_dict(opts),
    }
    if kind == "bracket":
        sidecar["certificates"] = _certificates(mu, s)
        sidecar["laplacian_flow_diagonal"] = lf_diagonal_test(traj)
    _emit(args, traj, sidecar)
    return 0


def cmd_aa_flow(args):
    m = _aamatrix_from_input(_load_input(args.input))
    opts = _options_from_args(args)
    traj = aa.matrix_bracket_flow(m, opts)
    sidecar = {
        "command": "aa-flow", "status": traj.status,
        "options": _options_dict(opts),
        "initial": m.to_json_dict(),
    }
    _emit(args, traj, sidecar)
    return 0


def cmd_soliton(args):
    data = _load_input(args.input)
    mu, phi = _bracket_from_input(data)
    s = G2Structure(phi)
    out = {"command": "soliton", **_certificates(mu, s)}
    _write(args.out, _json_text(out))
    return 0


def cmd_aa_classify(args):
    m = _aamatrix_from_input(_load_input(args.input))
    cls = aa.classify_soliton(m)
    out = {
        "command": "aa-classify",
        "kind": cls.kind,
        "c": cls.c,
        "d": cls.d,
        "normal_form": cls.normal_form,
        "residual": None if math.isinf(cls.residual) else cls.residual,
        "flags": {
            "in_sl3C": m.in_sl3C, "in_sp3R": m.in_sp3R, "in_su3": m.in_su3,
            "is_nilpotent": m.is_nilpotent, "is_normal": m.is_normal,
        },
    }
    if cls.D1 is not None:
        out["D1"] = np.asarray(cls.D1).tolist()
    if cls.eigenvalues is not None:
        out["eigenvalues"] = [[z.real, z.imag] for z in cls.eigenvalues]
    _write(args.out, _json_text(out))
    return 0


def _classify_row(m: aa.AAMatrix):
    cls = aa.classify_soliton(m)
    _, R = aa.ricci_aa(m)
    tau = aa.torsion_two_form(m).norm()
    return {"kind": cls.kind, "c": cls.c, "R": R, "tau": tau}


def cmd_sweep(args):
    data = _load_input(args.input)
    if not is_object_list(data.get("matrices")):
        raise ValueError("'matrices' must be a list of objects")
    mats = [_aamatrix_from_input(d) for d in data["matrices"]]
    lines = [CSV_SCHEMA, "index,kind,c,R,|tau|"]
    for i, r in enumerate(map(_classify_row, mats)):
        c = "" if r["c"] is None else _fmt(r["c"])
        lines.append(f"{i},{r['kind']},{c},{_fmt(r['R'])},{_fmt(r['tau'])}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args):
    """Run every corpus check; a check that raises counts as a FAIL line."""
    checks = corpus.build_verify_corpus()
    width = max(len(name) for name, _ in checks)
    lines = []
    for name, fn in checks:
        try:
            lines.append(f"PASS  {name:<{width}}  residual={fn():.3e}")
        except AssertionError as exc:
            lines.append(f"FAIL  {name:<{width}}  {exc}")
        except Exception as exc:  # one failing check must not stop the rest
            lines.append(f"FAIL  {name:<{width}}  {type(exc).__name__}: {exc}")
    failures = sum(line.startswith("FAIL") for line in lines)
    lines.append(f"{len(checks) - failures}/{len(checks)} corpus checks passed")
    _write(args.out, "\n".join(lines) + "\n")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The one parser of the process, built on first use; parse_args does
    not change it, so every main call can share it."""
    p = argparse.ArgumentParser(
        prog="g2flow",
        description="Laplacian flow of left-invariant G2-structures via the "
                    "bracket flow")
    sub = p.add_subparsers(dest="command", required=True)

    parsers = {name: sub.add_parser(name) for name in _COMMANDS}
    for name, q in parsers.items():
        if name != "verify":
            q.add_argument("--input", help="path to a JSON file, or inline JSON")
        q.add_argument("--out", help="output path (default: stdout)")
    for q in (parsers["flow"], parsers["aa-flow"]):
        q.add_argument("--format", choices=("csv", "json"), default="csv")
        q.add_argument("--t-end", dest="t_end", type=float, default=10.0)
        q.add_argument("--atol", type=float, default=1e-9)
        q.add_argument("--rtol", type=float, default=1e-9)
        q.add_argument("--h0", type=float, default=1e-3)
        q.add_argument("--method", choices=("rk4", "rk45"), default="rk45")
        q.add_argument("--sample-every", dest="sample_every", type=int, default=10)
    parsers["flow"].add_argument("--normalize", default="none",
                                 choices=("none", "unit-bracket-norm"))
    return p


_COMMANDS = {
    "flow": cmd_flow,
    "aa-flow": cmd_aa_flow,
    "soliton": cmd_soliton,
    "aa-classify": cmd_aa_classify,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (G2FlowError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
