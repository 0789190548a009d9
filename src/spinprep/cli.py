"""Batch command-line front end: figure tables, sweeps, sampling, feasibility.

Every subcommand evaluates a deterministic function of its flags and the
seed, then emits a flat CSV or JSON table whose metadata echoes the full
sweep specification, so a result file can be reproduced byte-for-byte from
its own header.  No plotting happens here; the emitted tables are meant to
be consumed by external tools.

Exit codes: 0 success (and a passing feasibility check), 1 usage error,
2 numeric failure or a failing feasibility check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .measurement import MeasurementSetting, posterior_batch, sample_outcomes
from .pulse_optics import PULSE_KINDS, CavityParams, feasibility
from .protocols import (
    dss_rows,
    dss_with_repeated_outcome,
    prepare_dss,
    repetitive_dss_rows,
    superposition_rows,
)
from .spin_core import log_css_amplitudes, make_css


class UsageError(Exception):
    """Bad flags or an invalid sweep specification."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one batch run, embedded in every output file."""

    command: str
    subvariant: str | None = None
    param: str | None = None
    grid: dict | None = None
    fixed: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.grid is not None:
            start, stop, count = self.grid["start"], self.grid["stop"], self.grid["count"]
            if count < 2:
                raise UsageError(f"grid count must be >= 2, got {count}")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise UsageError("grid bounds must be finite")
            scale = self.grid.get("scale", "linear")
            if scale not in ("linear", "log"):
                raise UsageError(f"grid scale must be linear or log, got {scale!r}")
            if scale == "log" and (start <= 0 or stop <= 0):
                raise UsageError("log grids need positive bounds")

    def points(self) -> np.ndarray:
        g = self.grid
        if g["scale"] == "log":
            return np.geomspace(g["start"], g["stop"], g["count"])
        return np.linspace(g["start"], g["stop"], g["count"])


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: list[str]
    rows: list[tuple]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(result: SweepResult, stream) -> None:
    stream.write(f"# spec={json.dumps(asdict(result.spec), sort_keys=True)}\n")
    stream.write(f"# version={__version__}\n")
    stream.write(",".join(result.columns) + "\n")
    for row in result.rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(result: SweepResult, stream) -> None:
    payload = {
        "spec": asdict(result.spec),
        "version": __version__,
        "columns": result.columns,
        "rows": [[(int(v) if isinstance(v, (int, np.integer)) else float(v)) for v in row]
                 for row in result.rows],
    }
    stream.write(json.dumps(payload, sort_keys=True, indent=1))
    stream.write("\n")


def read_result(path) -> dict:
    """Parse an emitted CSV/JSON file back into spec + columns + rows."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    spec = version = None
    columns, rows = None, []
    for line in text.splitlines():
        if line.startswith("# spec="):
            spec = json.loads(line[len("# spec="):])
        elif line.startswith("# version="):
            version = line[len("# version="):]
        elif line.startswith("#") or not line:
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return {"spec": spec, "version": version, "columns": columns, "rows": rows}


def _emit(result: SweepResult, out: str | None, fmt: str) -> None:
    writer = write_csv if fmt == "csv" else write_json
    if out is None:
        writer(result, sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer(result, fh)


def _zip_columns(values: np.ndarray, columns) -> list[tuple]:
    """Rows (value, column_0[i], column_1[i], ...) as plain Python numbers."""
    return list(zip(values.tolist(), *(np.asarray(c).tolist() for c in columns)))


def _slug(x: float) -> str:
    return f"{x:g}".replace(".", "p").replace("-", "m")


# --------------------------------------------------------------------------
# figure tables
# --------------------------------------------------------------------------

_FIG2_CHIS = (0.05, 0.1, 0.2)
_FIG2_RATIOS = (("third", 1.0 / 3.0), ("half", 0.5), ("full", 1.0))


def _superposition_pm(n_atoms: int, chi_x, outcomes) -> list[list[float]]:
    """P(m) of the CSS conditioned on each amplitude-quadrature record."""
    probs, _ = posterior_batch(
        log_css_amplitudes(n_atoms), outcomes, chi_x=chi_x, reduce=lambda post: post.probs
    )
    return probs.tolist()


def cmd_fig2(sub: str, n_atoms: int, chi_x: float | None, seed: int) -> SweepResult:
    s = n_atoms / 2.0
    if sub == "a":
        chis = [chi_x] if chi_x is not None else list(_FIG2_CHIS)
        spec = SweepSpec("fig2", "a", "m", None, {"N": n_atoms, "chi_x": chis}, seed)
        columns = ["m"] + [f"p_chi_{_slug(c)}" for c in chis]
        dists = _superposition_pm(n_atoms, chis, [-c * s / 2.0 for c in chis])
        m_vals = np.arange(n_atoms + 1) - s
        return SweepResult(spec, columns, list(zip(m_vals.tolist(), *dists)))
    if sub == "b":
        chi = chi_x if chi_x is not None else 0.2
        spec = SweepSpec("fig2", "b", "m", None, {"N": n_atoms, "chi_x": chi}, seed)
        columns = ["m"] + [f"p_xl_{name}" for name, _ in _FIG2_RATIOS]
        dists = _superposition_pm(n_atoms, chi, [-chi * s * r for _, r in _FIG2_RATIOS])
        m_vals = np.arange(n_atoms + 1) - s
        return SweepResult(spec, columns, list(zip(m_vals.tolist(), *dists)))
    if sub == "c":
        grid = {"start": 0.02, "stop": 0.5, "count": 25, "scale": "linear"}
        spec = SweepSpec("fig2", "c", "chi_x", grid, {"N": n_atoms}, seed)
        columns = ["chi_x"] + [f"f_xl_{name}" for name, _ in _FIG2_RATIOS]
        chis = spec.points()
        fids = [superposition_rows(n_atoms, chis, -chis * s * r)[0] for _, r in _FIG2_RATIOS]
        return SweepResult(spec, columns, _zip_columns(chis, fids))
    raise UsageError(f"unknown fig2 subvariant {sub!r}")


def cmd_fig3(sub: str, n_atoms: int | None, chi_p: float | None, seed: int) -> SweepResult:
    if sub == "a":
        n = n_atoms if n_atoms is not None else 40
        chis = [chi_p] if chi_p is not None else [0.2, 0.4]
        grid = {"start": -1.0, "stop": 1.0, "count": 41, "scale": "linear"}
        spec = SweepSpec("fig3", "a", "outcome_fraction", grid, {"N": n, "chi_p": chis}, seed)
        columns = ["outcome_fraction"] + [f"xi_d_chi_{_slug(c)}" for c in chis]
        fracs = spec.points()
        xis = [dss_rows(n, c, fracs * c * n / 2.0)[0] for c in chis]
        return SweepResult(spec, columns, _zip_columns(fracs, xis))
    if sub == "b":
        ns = [n_atoms] if n_atoms is not None else [40, 80, 120]
        grid = {"start": 0.05, "stop": 2.0, "count": 40, "scale": "linear"}
        spec = SweepSpec("fig3", "b", "chi_p", grid, {"N": ns}, seed)
        columns = ["chi_p"] + [f"xi_d_n{n}" for n in ns]
        chis = spec.points()
        xis = [dss_rows(n, chis, 0.0)[0] for n in ns]
        return SweepResult(spec, columns, _zip_columns(chis, xis))
    if sub == "c":
        chi = chi_p if chi_p is not None else 2.0
        ns = [n_atoms] if n_atoms is not None else list(range(10, 121, 2))
        spec = SweepSpec("fig3", "c", "n_atoms", None, {"chi_p": chi, "N": ns}, seed)
        columns = ["n_atoms", "xi_d", "xi_d_ideal", "xi_d_times_n_plus_2"]
        rows = []
        for n in ns:
            xi = prepare_dss(n, chi, 0.0).xi_d
            rows.append((n, xi, 1.0 / (n + 2), xi * (n + 2)))
        return SweepResult(spec, columns, rows)
    raise UsageError(f"unknown fig3 subvariant {sub!r}")


def cmd_fig4(
    sub: str, n_atoms: int | None, chi_p: float | None, n_rounds: int | None, seed: int
) -> SweepResult:
    n = n_atoms if n_atoms is not None else 40
    if sub == "a":
        chi = chi_p if chi_p is not None else 0.4
        rounds = [n_rounds] if n_rounds is not None else [1, 5, 25]
        grid = {"start": -1.0, "stop": 1.0, "count": 41, "scale": "linear"}
        spec = SweepSpec(
            "fig4", "a", "outcome_fraction", grid, {"N": n, "chi_p": chi, "n": rounds}, seed
        )
        columns = ["outcome_fraction"] + [f"xi_d_n{r}" for r in rounds]
        rows = []
        for frac in spec.points():
            outcome = frac * chi * n / 2.0
            xis = [dss_with_repeated_outcome(n, chi, r, outcome).xi_d for r in rounds]
            rows.append((frac, *xis))
        return SweepResult(spec, columns, rows)
    if sub == "b":
        rounds = [n_rounds] if n_rounds is not None else [1, 5, 25]
        grid = {"start": 0.05, "stop": 2.0, "count": 40, "scale": "linear"}
        spec = SweepSpec("fig4", "b", "chi_p", grid, {"N": n, "n": rounds}, seed)
        columns = ["chi_p"] + [f"xi_d_n{r}" for r in rounds]
        chis = spec.points()
        xis = [repetitive_dss_rows(n, chis, r) for r in rounds]
        return SweepResult(spec, columns, _zip_columns(chis, xis))
    if sub == "c":
        chis = [chi_p] if chi_p is not None else [0.2, 0.4]
        max_rounds = n_rounds if n_rounds is not None else 40
        spec = SweepSpec("fig4", "c", "n_rounds", None, {"N": n, "chi_p": chis}, seed)
        columns = (
            ["n_rounds"]
            + [f"xi_d_chi_{_slug(c)}" for c in chis]
            + [f"n_opt_chi_{_slug(c)}" for c in chis]
        )
        markers = [(2.0 / c) ** 2 for c in chis]
        rounds = np.arange(1, max_rounds + 1)
        xis = [repetitive_dss_rows(n, c, rounds) for c in chis]
        rows = [(*row, *markers) for row in _zip_columns(rounds, xis)]
        return SweepResult(spec, columns, rows)
    raise UsageError(f"unknown fig4 subvariant {sub!r}")


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


def cmd_sample(
    protocol: str,
    n_atoms: int,
    chi_x: float,
    chi_p: float,
    eta: float,
    n_shots: int,
    seed: int,
) -> SweepResult:
    if n_shots < 1:
        raise UsageError(f"n_shots must be >= 1, got {n_shots}")
    css = make_css(n_atoms)
    if protocol == "dss":
        if not chi_p > 0:
            raise UsageError("sample dss requires --chi-p > 0")
        setting = MeasurementSetting(chi_p=chi_p, eta=eta)
    elif protocol == "superposition":
        if not chi_x > 0:
            raise UsageError("sample superposition requires --chi-x > 0")
        setting = MeasurementSetting(chi_x=chi_x, eta=eta)
    else:
        raise UsageError(f"unknown sample protocol {protocol!r}")

    outcomes = sample_outcomes(css, setting, n_shots, seed)
    fixed = {"N": n_atoms, "chi_x": chi_x, "chi_p": chi_p, "eta": eta, "n_shots": n_shots}
    spec = SweepSpec("sample", protocol, "shot", None, fixed, seed)
    if protocol == "dss":
        columns = ["shot", "outcome", "density", "xi_d"]
        xi_d, log_density = dss_rows(n_atoms, chi_p, outcomes, eta)
        values = (xi_d,)
    else:
        columns = ["shot", "outcome", "density", "fidelity", "target_m_c"]
        fid, m_c, _, _, log_density = superposition_rows(n_atoms, chi_x, outcomes, eta)
        values = (fid, m_c)
    rows = _zip_columns(np.arange(n_shots), (outcomes, np.exp(log_density), *values))
    return SweepResult(spec, columns, rows)


# --------------------------------------------------------------------------
# generic sweep
# --------------------------------------------------------------------------

SWEEP_PROTOCOLS = {
    "dss": {"params": ("chi_p", "outcome", "N")},
    "superposition": {"params": ("chi_x", "outcome", "N")},
    "repetitive_dss": {"params": ("n", "chi_p")},
}


def _sweep_values(protocol: str, params: dict) -> list[np.ndarray]:
    """Result columns after ``value``; any parameter may hold one value per record."""
    n_atoms, eta = int(params["N"]), params.get("eta", 0.0)
    if protocol == "dss":
        xi_d, _ = dss_rows(n_atoms, params["chi_p"], params["outcome"], eta)
        return [xi_d]
    if protocol == "superposition":
        return list(superposition_rows(n_atoms, params["chi_x"], params["outcome"], eta)[:4])
    return [repetitive_dss_rows(n_atoms, params["chi_p"], np.rint(params["n"]))]


_SWEEP_COLUMNS = {
    "dss": ["value", "xi_d"],
    "superposition": ["value", "fidelity", "target_m_c", "separation", "width"],
    "repetitive_dss": ["value", "xi_d"],
}


def cmd_sweep(spec: SweepSpec) -> SweepResult:
    protocol = spec.subvariant
    if protocol not in SWEEP_PROTOCOLS:
        raise UsageError(
            f"unknown sweep protocol {protocol!r}; expected one of {sorted(SWEEP_PROTOCOLS)}"
        )
    if spec.param not in SWEEP_PROTOCOLS[protocol]["params"]:
        raise UsageError(
            f"parameter {spec.param!r} is not sweepable for {protocol}; "
            f"choose from {SWEEP_PROTOCOLS[protocol]['params']}"
        )
    points = spec.points()
    if spec.param == "N":
        # each N has its own level count, so each point is a batch of one record
        blocks = [_sweep_values(protocol, {**spec.fixed, "N": n}) for n in points]
        columns = [np.concatenate(c) for c in zip(*blocks)]
    else:
        columns = _sweep_values(protocol, {**spec.fixed, spec.param: points})
    return SweepResult(spec, _SWEEP_COLUMNS[protocol], _zip_columns(points, columns))


# --------------------------------------------------------------------------
# feasibility
# --------------------------------------------------------------------------


def cmd_feasibility(args) -> tuple[int, str]:
    if args.g <= 0 or args.kappa <= 0:
        raise UsageError("--g and --kappa must be positive")
    if args.delta == 0:
        raise UsageError("--delta must be nonzero")
    if args.n_t < 1:
        raise UsageError("--n-t must be >= 1")
    cavity = CavityParams.from_two_pi_megahertz(args.g, args.delta, args.kappa, args.np)
    report = feasibility(cavity, kind=args.kind, n_t=args.n_t, threshold=args.threshold)
    lines = [
        f"kind                    : {args.kind} (n_t = {args.n_t:g})",
        f"max intracavity photons : {report.max_intracavity_photons:.6g}",
        f"dispersive bound        : {report.dispersive_bound:.6g}",
        f"chi_x bound             : {report.chi_x_bound:.6g}",
        f"chi_p bound             : {report.chi_p_bound:.6g}",
        f"ok                      : {report.ok}",
    ]
    if args.out:
        payload = {
            "params": {
                "g_2pi_mhz": args.g,
                "delta_2pi_mhz": args.delta,
                "kappa_2pi_mhz": args.kappa,
                "n_photons": args.np,
                "kind": args.kind,
                "n_t": args.n_t,
            },
            "report": {
                "max_intracavity_photons": report.max_intracavity_photons,
                "dispersive_bound": report.dispersive_bound,
                "chi_x_bound": report.chi_x_bound,
                "chi_p_bound": report.chi_p_bound,
                "ok": report.ok,
                "threshold": report.threshold,
            },
            "version": __version__,
        }
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return (0 if report.ok else 2), "\n".join(lines)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _external_config() -> dict:
    """Flag defaults from a JSON config file and SPINPREP_* variables.

    Precedence file < environment < flags: the file named by SPINPREP_CONFIG
    is loaded first, then individual SPINPREP_<FLAG> variables override its
    keys, and explicit command-line flags override both.
    """
    cfg = {}
    path = os.environ.get("SPINPREP_CONFIG")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        cfg.update(loaded)
    for key, value in os.environ.items():
        if key.startswith("SPINPREP_") and key != "SPINPREP_CONFIG":
            cfg[key[len("SPINPREP_"):].lower()] = value
    return cfg


def _apply_config_defaults(subparser: argparse.ArgumentParser, cfg: dict) -> None:
    for action in subparser._actions:
        if not action.option_strings or action.dest not in cfg:
            continue
        raw = cfg[action.dest]
        value = action.type(raw) if (action.type and isinstance(raw, str)) else raw
        if action.choices and value not in action.choices:
            raise UsageError(
                f"configured {action.dest}={value!r} not in {sorted(action.choices)}"
            )
        subparser.set_defaults(**{action.dest: value})


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)

    p2 = sub.add_parser("fig2", help="superposition-state probability and fidelity tables")
    p2.add_argument("subvariant", choices=("a", "b", "c"))
    p2.add_argument("--N", type=int, default=100)
    p2.add_argument("--chi-x", type=float, default=None)
    add_io(p2)

    p3 = sub.add_parser("fig3", help="squeezing parameter tables")
    p3.add_argument("subvariant", choices=("a", "b", "c"))
    p3.add_argument("--N", type=int, default=None)
    p3.add_argument("--chi-p", type=float, default=None)
    add_io(p3)

    p4 = sub.add_parser("fig4", help="repeated-measurement squeezing tables")
    p4.add_argument("subvariant", choices=("a", "b", "c"))
    p4.add_argument("--N", type=int, default=None)
    p4.add_argument("--chi-p", type=float, default=None)
    p4.add_argument("--n", type=int, default=None, help="rounds (or max rounds for c)")
    add_io(p4)

    pf = sub.add_parser("feasibility", help="dispersive-regime photon budget check")
    pf.add_argument("--g", type=float, default=0.4, help="coupling, 2*pi x MHz")
    pf.add_argument("--delta", type=float, default=3000.0, help="detuning, 2*pi x MHz")
    pf.add_argument("--kappa", type=float, default=1.0, help="cavity decay, 2*pi x MHz")
    pf.add_argument("--np", type=float, default=100.0, help="probe photon number")
    pf.add_argument("--n-t", type=float, default=1.0, help="pulse stretch factor")
    pf.add_argument("--kind", choices=PULSE_KINDS, default="exponential")
    pf.add_argument("--threshold", type=float, default=0.01)
    pf.add_argument("--out", default=None, help="also write a JSON report here")

    ps = sub.add_parser("sample", help="Monte-Carlo outcome sampling")
    ps.add_argument("protocol", choices=("dss", "superposition"))
    ps.add_argument("--N", type=int, default=40)
    ps.add_argument("--chi-x", type=float, default=0.0)
    ps.add_argument("--chi-p", type=float, default=0.0)
    ps.add_argument("--eta", type=float, default=0.0)
    ps.add_argument("--n-shots", type=int, default=1000)
    add_io(ps)

    pw = sub.add_parser("sweep", help="generic one-parameter sweep")
    pw.add_argument("protocol", choices=sorted(SWEEP_PROTOCOLS))
    pw.add_argument("--param", required=True)
    pw.add_argument("--start", type=float, required=True)
    pw.add_argument("--stop", type=float, required=True)
    pw.add_argument("--count", type=int, required=True)
    pw.add_argument("--scale", choices=("linear", "log"), default="linear")
    pw.add_argument("--N", type=int, default=40)
    pw.add_argument("--chi-x", type=float, default=0.2)
    pw.add_argument("--chi-p", type=float, default=0.4)
    pw.add_argument("--outcome", type=float, default=0.0)
    pw.add_argument("--eta", type=float, default=0.0)
    pw.add_argument("--n", type=int, default=1)
    add_io(pw)

    cfg = _external_config()
    if cfg:
        for p in (p2, p3, p4, pf, ps, pw):
            _apply_config_defaults(p, cfg)
    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command == "fig2":
            result = cmd_fig2(args.subvariant, args.N, args.chi_x, args.seed)
        elif args.command == "fig3":
            result = cmd_fig3(args.subvariant, args.N, args.chi_p, args.seed)
        elif args.command == "fig4":
            result = cmd_fig4(args.subvariant, args.N, args.chi_p, args.n, args.seed)
        elif args.command == "feasibility":
            code, text = cmd_feasibility(args)
            print(text)
            return code
        elif args.command == "sample":
            result = cmd_sample(
                args.protocol, args.N, args.chi_x, args.chi_p, args.eta,
                args.n_shots, args.seed,
            )
        elif args.command == "sweep":
            grid = {
                "start": args.start, "stop": args.stop,
                "count": args.count, "scale": args.scale,
            }
            fixed = {
                "N": args.N, "chi_x": args.chi_x, "chi_p": args.chi_p,
                "outcome": args.outcome, "eta": args.eta, "n": args.n,
            }
            spec = SweepSpec("sweep", args.protocol, args.param, grid, fixed, args.seed)
            result = cmd_sweep(spec)
        else:  # pragma: no cover - argparse enforces choices
            raise UsageError(f"unknown command {args.command!r}")
        _emit(result, args.out, args.format)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
