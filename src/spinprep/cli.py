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
from .protocols import dss_rows, repetitive_dss_rows, superposition_rows
from .spin_core import log_css_amplitudes, m_ladder, make_css


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


def write_csv(result: SweepResult, stream) -> None:
    stream.write(f"# spec={json.dumps(asdict(result.spec), sort_keys=True)}\n")
    stream.write(f"# version={__version__}\n")
    stream.write(",".join(result.columns) + "\n")
    row_format = ",".join(["%.17g"] * len(result.columns)) + "\n"
    stream.write("".join(row_format % row for row in result.rows))


def write_json(result: SweepResult, stream) -> None:
    payload = {
        "spec": asdict(result.spec),
        "version": __version__,
        "columns": result.columns,
        "rows": result.rows,
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
    probs, _ = posterior_batch(log_css_amplitudes(n_atoms), outcomes, chi_x=chi_x)
    return probs.tolist()


def cmd_fig2(sub: str, n_atoms: int, chi_x: float | None, seed: int) -> SweepResult:
    s = n_atoms / 2.0
    if sub == "a":
        chis = [chi_x] if chi_x is not None else list(_FIG2_CHIS)
        spec = SweepSpec("fig2", "a", "m", None, {"N": n_atoms, "chi_x": chis}, seed)
        columns = ["m"] + [f"p_chi_{_slug(c)}" for c in chis]
        dists = _superposition_pm(n_atoms, chis, [-c * s / 2.0 for c in chis])
        return SweepResult(spec, columns, list(zip(m_ladder(n_atoms).tolist(), *dists)))
    if sub == "b":
        chi = chi_x if chi_x is not None else 0.2
        spec = SweepSpec("fig2", "b", "m", None, {"N": n_atoms, "chi_x": chi}, seed)
        columns = ["m"] + [f"p_xl_{name}" for name, _ in _FIG2_RATIOS]
        dists = _superposition_pm(n_atoms, chi, [-chi * s * r for _, r in _FIG2_RATIOS])
        return SweepResult(spec, columns, list(zip(m_ladder(n_atoms).tolist(), *dists)))
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
        xis = [float(dss_rows(n, chi, 0.0)[0][0]) for n in ns]
        rows = [(n, xi, 1.0 / (n + 2), xi * (n + 2)) for n, xi in zip(ns, xis)]
        return SweepResult(spec, columns, rows)
    raise UsageError(f"unknown fig3 subvariant {sub!r}")


def cmd_fig4(
    sub: str, n_atoms: int | None, chi_p: float | None, n_rounds: int | None, seed: int
) -> SweepResult:
    if n_rounds is not None and n_rounds < 1:
        raise UsageError(f"--n must be >= 1, got {n_rounds}")
    n = n_atoms if n_atoms is not None else 40
    rounds = [n_rounds] if n_rounds is not None else [1, 5, 25]
    if sub == "a":
        chi = chi_p if chi_p is not None else 0.4
        grid = {"start": -1.0, "stop": 1.0, "count": 41, "scale": "linear"}
        spec = SweepSpec(
            "fig4", "a", "outcome_fraction", grid, {"N": n, "chi_p": chi, "n": rounds}, seed
        )
        columns = ["outcome_fraction"] + [f"xi_d_n{r}" for r in rounds]
        fracs = spec.points()
        xis = [repetitive_dss_rows(n, chi, r, fracs * chi * n / 2.0) for r in rounds]
        return SweepResult(spec, columns, _zip_columns(fracs, xis))
    if sub == "b":
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
    css = make_css(n_atoms)
    if protocol == "dss":
        setting = MeasurementSetting(chi_p=chi_p)
    elif protocol == "superposition":
        setting = MeasurementSetting(chi_x=chi_x)
    else:
        raise UsageError(f"unknown sample protocol {protocol!r}")

    outcomes = sample_outcomes(css, setting, n_shots, seed)
    fixed = {"N": n_atoms, "chi_x": chi_x, "chi_p": chi_p, "eta": eta, "n_shots": n_shots}
    spec = SweepSpec("sample", protocol, "shot", None, fixed, seed)
    if protocol == "dss":
        columns = ["shot", "outcome", "density", "xi_d"]
        xi_d, log_density = dss_rows(n_atoms, chi_p, outcomes)
        values = (xi_d,)
    else:
        columns = ["shot", "outcome", "density", "fidelity", "target_m_c"]
        fid, m_c, _, _, log_density = superposition_rows(n_atoms, chi_x, outcomes)
        values = (fid, m_c)
    rows = _zip_columns(np.arange(n_shots), (outcomes, np.exp(log_density), *values))
    return SweepResult(spec, columns, rows)


# --------------------------------------------------------------------------
# generic sweep
# --------------------------------------------------------------------------

SWEEP_PROTOCOLS = {
    "dss": {"params": ("chi_p", "outcome", "N"), "columns": ["value", "xi_d"]},
    "superposition": {
        "params": ("chi_x", "outcome", "N"),
        "columns": ["value", "fidelity", "target_m_c", "separation", "width"],
    },
    "repetitive_dss": {"params": ("n", "chi_p"), "columns": ["value", "xi_d"]},
}


def _sweep_values(protocol: str, params: dict) -> list[np.ndarray]:
    """Result columns after ``value``; any parameter may hold one value per record."""
    n_atoms = int(params["N"])
    if protocol == "dss":
        xi_d, _ = dss_rows(n_atoms, params["chi_p"], params["outcome"])
        return [xi_d]
    if protocol == "superposition":
        return list(superposition_rows(n_atoms, params["chi_x"], params["outcome"])[:4])
    return [repetitive_dss_rows(n_atoms, params["chi_p"], params["n"])]


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
    if spec.param in ("N", "n"):
        # atom and round counts: a grid point may miss its integer only by rounding
        snapped = np.rint(points)
        off = np.abs(points - snapped) > 1e-9 * np.abs(snapped)
        if off.any():
            raise UsageError(f"--param {spec.param} takes integers, got {points[off][0]:.17g}")
        points = snapped
    if spec.param == "N":
        # each N has its own level count, so each point is a batch of one record
        blocks = [_sweep_values(protocol, {**spec.fixed, "N": n}) for n in points]
        columns = [np.concatenate(c) for c in zip(*blocks)]
    else:
        columns = _sweep_values(protocol, {**spec.fixed, spec.param: points})
    return SweepResult(spec, SWEEP_PROTOCOLS[protocol]["columns"], _zip_columns(points, columns))


# --------------------------------------------------------------------------
# feasibility
# --------------------------------------------------------------------------


def cmd_feasibility(g: float, delta: float, kappa: float, n_photons: float, n_t: float,
                    kind: str, threshold: float, out: str | None) -> tuple[int, str]:
    # checked here, in the units typed: CavityParams sees rad/s and would
    # report --kappa -1 as -6283185.3
    if g <= 0 or kappa <= 0:
        raise UsageError("--g and --kappa must be positive")
    if delta == 0:
        raise UsageError("--delta must be nonzero")
    cavity = CavityParams.from_two_pi_megahertz(g, delta, kappa, n_photons)
    report = feasibility(cavity, kind=kind, n_t=n_t, threshold=threshold)
    lines = [
        f"kind                    : {kind} (n_t = {n_t:g})",
        f"max intracavity photons : {report.max_intracavity_photons:.6g}",
        f"dispersive bound        : {report.dispersive_bound:.6g}",
        f"chi_x bound             : {report.chi_x_bound:.6g}",
        f"chi_p bound             : {report.chi_p_bound:.6g}",
        f"ok                      : {report.ok}",
    ]
    if out:
        payload = {
            "params": {
                "g_2pi_mhz": g,
                "delta_2pi_mhz": delta,
                "kappa_2pi_mhz": kappa,
                "n_photons": n_photons,
                "kind": kind,
                "n_t": n_t,
            },
            "report": asdict(report),
            "version": __version__,
        }
        with open(out, "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return (0 if report.ok else 2), "\n".join(lines)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def finite(text: str) -> float:
    """Flag type for real numbers: a non-finite value is a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


_IO_FLAGS = (
    ("--out", {"help": "output path (default: stdout)"}),
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    ("--seed", {"type": int, "default": 0}),
)
_SUBVARIANT = ("subvariant", {"choices": ("a", "b", "c")})

# Each subcommand's help line and its flags as (name, add_argument keywords).
# A flag's dest is also its config-file key, and SPINPREP_<DEST upper-cased>
# its environment variable, so no two dests of one subcommand may agree once
# upper-cased: the rounds flag --n therefore stores to n_rounds, not n.
COMMANDS = {
    "fig2": ("superposition-state probability and fidelity tables", (
        _SUBVARIANT,
        ("--N", {"type": int, "default": 100}),
        ("--chi-x", {"type": finite}),
        *_IO_FLAGS,
    )),
    "fig3": ("squeezing parameter tables", (
        _SUBVARIANT,
        ("--N", {"type": int}),
        ("--chi-p", {"type": finite}),
        *_IO_FLAGS,
    )),
    "fig4": ("repeated-measurement squeezing tables", (
        _SUBVARIANT,
        ("--N", {"type": int}),
        ("--chi-p", {"type": finite}),
        ("--n", {"dest": "n_rounds", "type": int, "help": "rounds (or max rounds for c)"}),
        *_IO_FLAGS,
    )),
    "feasibility": ("dispersive-regime photon budget check", (
        ("--g", {"type": finite, "default": 0.4, "help": "coupling, 2*pi x MHz"}),
        ("--delta", {"type": finite, "default": 3000.0, "help": "detuning, 2*pi x MHz"}),
        ("--kappa", {"type": finite, "default": 1.0, "help": "cavity decay, 2*pi x MHz"}),
        ("--np", {"type": finite, "default": 100.0, "help": "probe photon number"}),
        ("--n-t", {"type": finite, "default": 1.0, "help": "pulse stretch factor"}),
        ("--kind", {"choices": PULSE_KINDS, "default": "exponential"}),
        ("--threshold", {"type": finite, "default": 0.01}),
        ("--out", {"help": "also write a JSON report here"}),
    )),
    "sample": ("Monte-Carlo outcome sampling", (
        ("protocol", {"choices": ("dss", "superposition")}),
        ("--N", {"type": int, "default": 40}),
        ("--chi-x", {"type": finite, "default": 0.0}),
        ("--chi-p", {"type": finite, "default": 0.0}),
        ("--eta", {"type": finite, "default": 0.0}),
        ("--n-shots", {"type": int, "default": 1000}),
        *_IO_FLAGS,
    )),
    "sweep": ("generic one-parameter sweep", (
        ("protocol", {"choices": sorted(SWEEP_PROTOCOLS)}),
        ("--param", {"required": True}),
        ("--start", {"type": finite, "required": True}),
        ("--stop", {"type": finite, "required": True}),
        ("--count", {"type": int, "required": True}),
        ("--scale", {"choices": ("linear", "log"), "default": "linear"}),
        ("--N", {"type": int, "default": 40}),
        ("--chi-x", {"type": finite, "default": 0.2}),
        ("--chi-p", {"type": finite, "default": 0.4}),
        ("--outcome", {"type": finite, "default": 0.0}),
        ("--eta", {"type": finite, "default": 0.0}),
        ("--n", {"dest": "n_rounds", "type": int, "default": 1}),
        *_IO_FLAGS,
    )),
}


def _config_file() -> dict:
    path = os.environ.get("SPINPREP_CONFIG")
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return loaded


def _configured(name: str, kw: dict, cfg: dict) -> dict:
    """``kw`` with its default from SPINPREP_<DEST> or else the config file."""
    dest = kw.get("dest", name.lstrip("-").replace("-", "_"))
    variable = f"SPINPREP_{dest.upper()}"
    if not name.startswith("-") or (variable not in os.environ and dest not in cfg):
        return kw
    raw = os.environ.get(variable, cfg.get(dest))
    try:  # a file value goes through the flag's type as if typed on the command line
        value = kw.get("type", str)(str(raw))
    except ValueError as exc:
        raise UsageError(f"configured {dest}={raw!r}: {exc}") from exc
    if "choices" in kw and value not in kw["choices"]:
        raise UsageError(f"configured {dest}={value!r} not in {sorted(kw['choices'])}")
    return {**kw, "default": value}


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, adding flags only to the subcommand it names.

    Precedence of flag defaults: file named by SPINPREP_CONFIG < SPINPREP_<DEST> < flags.
    """
    parser = _Parser(prog="spinprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv else None
    cfg = _config_file() if named in COMMANDS else {}
    for command, (help_line, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if command == named:
            for name, kw in flags:
                p.add_argument(name, **_configured(name, kw, cfg))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        a = _parse(sys.argv[1:] if argv is None else list(argv))
        if a.command == "feasibility":
            code, text = cmd_feasibility(
                a.g, a.delta, a.kappa, a.np, a.n_t, a.kind, a.threshold, a.out
            )
            print(text)
            return code
        if a.command == "fig2":
            result = cmd_fig2(a.subvariant, a.N, a.chi_x, a.seed)
        elif a.command == "fig3":
            result = cmd_fig3(a.subvariant, a.N, a.chi_p, a.seed)
        elif a.command == "fig4":
            result = cmd_fig4(a.subvariant, a.N, a.chi_p, a.n_rounds, a.seed)
        elif a.command == "sample":
            result = cmd_sample(a.protocol, a.N, a.chi_x, a.chi_p, a.eta, a.n_shots, a.seed)
        else:
            grid = {"start": a.start, "stop": a.stop, "count": a.count, "scale": a.scale}
            fixed = {"N": a.N, "chi_x": a.chi_x, "chi_p": a.chi_p,
                     "outcome": a.outcome, "eta": a.eta, "n": a.n_rounds}
            result = cmd_sweep(SweepSpec("sweep", a.protocol, a.param, grid, fixed, a.seed))
        _emit(result, a.out, a.format)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
