"""Batch command-line front end: figure tables, sweeps, sampling, feasibility.

Every subcommand evaluates a deterministic function of its flags and the
seed, then emits a flat CSV or JSON table whose metadata echoes the full
sweep specification, so a result file can be reproduced byte-for-byte from
its own header.  No plotting happens here; the emitted tables are meant to
be consumed by external tools.

Exit codes: 0 success (and a passing feasibility check), 1 usage error,
2 numeric failure or a failing feasibility check, 141 (128 + SIGPIPE, as a
shell reports a tool stopped by a closed pipe) when the reader of stdout
closes it before the output is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .measurement import MeasurementSetting, level_rows, posterior_batch, sample_outcomes
from .pulse_optics import LONG_EXPONENTIAL, PULSE_KINDS, CavityParams, feasibility
from .protocols import _require_positive, dss_rows, repetitive_dss_rows, superposition_rows
from .spin_core import CssPrior, m_ladder


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
            if self.grid.get("scale", "linear") == "log" and (start <= 0 or stop <= 0):
                raise UsageError("log grids need positive bounds")

    def points(self) -> np.ndarray:
        g = self.grid
        if g.get("scale", "linear") == "log":
            return np.geomspace(g["start"], g["stop"], g["count"])
        return np.linspace(g["start"], g["stop"], g["count"])


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: list[str]
    rows: list[tuple]


def write_csv(result: SweepResult, stream) -> None:
    stream.write(f"# spec={json.dumps(vars(result.spec), sort_keys=True)}\n")
    stream.write(f"# version={__version__}\n")
    stream.write(",".join(result.columns) + "\n")
    row_format = ",".join(["%.17g"] * len(result.columns)) + "\n"
    stream.write("".join(row_format % row for row in result.rows))


# one JSON array per row, each value on its own line: with no indent the
# stdlib's C encoder writes the rows, where indent=1 falls back to pure Python
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n   ", ": "))


def write_json(result: SweepResult, stream) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=1)`` and a newline.

    The bytes are those of the stdlib's ``indent=1`` layout, made faster: the
    payload is dumped with ``"rows": null``, the rows are encoded in one call
    of the C encoder, the separators between and around rows are set to the
    indented ones, and the result replaces that ``null``.  Inside a JSON
    string every quote is escaped, so the first ``"rows": null`` is the key.
    Numbers keep the stdlib's own formatting (``Infinity``, ``NaN``, ints).
    """
    payload = {
        "spec": vars(result.spec),
        "version": __version__,
        "columns": result.columns,
        "rows": None,
    }
    rows = _ROWS_ENCODER.encode(result.rows)
    if rows != "[]":
        rows = "[\n  [\n   " + rows[2:-2].replace("],\n   [", "\n  ],\n  [\n   ") + "\n  ]\n ]"
    text = json.dumps(payload, sort_keys=True, indent=1)
    stream.write(text.replace('"rows": null', '"rows": ' + rows, 1))
    stream.write("\n")


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


def _curves(curves, points) -> tuple[np.ndarray, np.ndarray]:
    """One record per curve and point, curve by curve: a table's curves in one batch.

    The rows of the batch's results, reshaped to (curves, points), are the curves.
    """
    return np.repeat(curves, len(points)), np.tile(points, len(curves))


def _slug(x: float) -> str:
    return f"{x:g}".replace(".", "p").replace("-", "m")


# --------------------------------------------------------------------------
# figure tables
# --------------------------------------------------------------------------

_FIG2_CHIS = (0.05, 0.1, 0.2)
_FIG2_RATIOS = (("third", 1.0 / 3.0), ("half", 0.5), ("full", 1.0))


def _superposition_pm(n_atoms: int, chi_x, outcomes) -> list[list[float]]:
    """P(m) of the CSS conditioned on each amplitude-quadrature record."""
    _require_positive("chi_x", chi_x)
    probs, _ = posterior_batch(CssPrior(n_atoms), outcomes, chi_x=chi_x, reduce=level_rows(n_atoms + 1))
    return probs.tolist()


def cmd_fig2(a: argparse.Namespace) -> SweepResult:
    s = a.N / 2.0
    if a.subvariant == "a":
        chis = [a.chi_x] if a.chi_x is not None else list(_FIG2_CHIS)
        spec = SweepSpec("fig2", "a", "m", None, {"N": a.N, "chi_x": chis}, a.seed)
        columns = ["m"] + [f"p_chi_{_slug(c)}" for c in chis]
        dists = _superposition_pm(a.N, chis, [-c * s / 2.0 for c in chis])
        return SweepResult(spec, columns, list(zip(m_ladder(a.N).tolist(), *dists)))
    if a.subvariant == "b":
        chi = a.chi_x if a.chi_x is not None else 0.2
        spec = SweepSpec("fig2", "b", "m", None, {"N": a.N, "chi_x": chi}, a.seed)
        columns = ["m"] + [f"p_xl_{name}" for name, _ in _FIG2_RATIOS]
        dists = _superposition_pm(a.N, chi, [-chi * s * r for _, r in _FIG2_RATIOS])
        return SweepResult(spec, columns, list(zip(m_ladder(a.N).tolist(), *dists)))
    grid = {"start": 0.02, "stop": 0.5, "count": 25, "scale": "linear"}
    spec = SweepSpec("fig2", "c", "chi_x", grid, {"N": a.N}, a.seed)
    columns = ["chi_x"] + [f"f_xl_{name}" for name, _ in _FIG2_RATIOS]
    chis = spec.points()
    ratio, chi = _curves([r for _, r in _FIG2_RATIOS], chis)
    fids = superposition_rows(a.N, chi, -chi * s * ratio)[0]
    return SweepResult(spec, columns, _zip_columns(chis, fids.reshape(len(_FIG2_RATIOS), -1)))


def cmd_fig3(a: argparse.Namespace) -> SweepResult:
    if a.subvariant == "a":
        n = a.N if a.N is not None else 40
        chis = [a.chi_p] if a.chi_p is not None else [0.2, 0.4]
        grid = {"start": -1.0, "stop": 1.0, "count": 41, "scale": "linear"}
        spec = SweepSpec("fig3", "a", "outcome_fraction", grid, {"N": n, "chi_p": chis}, a.seed)
        columns = ["outcome_fraction"] + [f"xi_d_chi_{_slug(c)}" for c in chis]
        fracs = spec.points()
        chi, frac = _curves(chis, fracs)
        xis = dss_rows(n, chi, frac * chi * n / 2.0)[0]
        return SweepResult(spec, columns, _zip_columns(fracs, xis.reshape(len(chis), -1)))
    if a.subvariant == "b":
        ns = [a.N] if a.N is not None else [40, 80, 120]
        grid = {"start": 0.05, "stop": 2.0, "count": 40, "scale": "linear"}
        spec = SweepSpec("fig3", "b", "chi_p", grid, {"N": ns}, a.seed)
        columns = ["chi_p"] + [f"xi_d_n{n}" for n in ns]
        chis = spec.points()
        xis = dss_rows(*_curves(ns, chis), 0.0)[0]
        return SweepResult(spec, columns, _zip_columns(chis, xis.reshape(len(ns), -1)))
    chi = a.chi_p if a.chi_p is not None else 2.0
    ns = [a.N] if a.N is not None else list(range(10, 121, 2))
    spec = SweepSpec("fig3", "c", "n_atoms", None, {"chi_p": chi, "N": ns}, a.seed)
    columns = ["n_atoms", "xi_d", "xi_d_ideal", "xi_d_times_n_plus_2"]
    xis = dss_rows(np.array(ns), chi, 0.0)[0].tolist()
    rows = [(n, xi, 1.0 / (n + 2), xi * (n + 2)) for n, xi in zip(ns, xis)]
    return SweepResult(spec, columns, rows)


def cmd_fig4(a: argparse.Namespace) -> SweepResult:
    if a.n_rounds is not None and a.n_rounds < 1:
        raise UsageError(f"--n must be >= 1, got {a.n_rounds}")
    n = a.N if a.N is not None else 40
    rounds = [a.n_rounds] if a.n_rounds is not None else [1, 5, 25]
    if a.subvariant == "a":
        chi = a.chi_p if a.chi_p is not None else 0.4
        grid = {"start": -1.0, "stop": 1.0, "count": 41, "scale": "linear"}
        spec = SweepSpec(
            "fig4", "a", "outcome_fraction", grid, {"N": n, "chi_p": chi, "n": rounds}, a.seed
        )
        columns = ["outcome_fraction"] + [f"xi_d_n{r}" for r in rounds]
        fracs = spec.points()
        record_rounds, frac = _curves(rounds, fracs)
        xis = repetitive_dss_rows(n, chi, record_rounds, frac * chi * n / 2.0)
        return SweepResult(spec, columns, _zip_columns(fracs, xis.reshape(len(rounds), -1)))
    if a.subvariant == "b":
        grid = {"start": 0.05, "stop": 2.0, "count": 40, "scale": "linear"}
        spec = SweepSpec("fig4", "b", "chi_p", grid, {"N": n, "n": rounds}, a.seed)
        columns = ["chi_p"] + [f"xi_d_n{r}" for r in rounds]
        chis = spec.points()
        record_rounds, chi = _curves(rounds, chis)
        xis = repetitive_dss_rows(n, chi, record_rounds)
        return SweepResult(spec, columns, _zip_columns(chis, xis.reshape(len(rounds), -1)))
    chis = [a.chi_p] if a.chi_p is not None else [0.2, 0.4]
    max_rounds = a.n_rounds if a.n_rounds is not None else 40
    fixed = {"N": n, "chi_p": chis, "n": max_rounds}
    spec = SweepSpec("fig4", "c", "n_rounds", None, fixed, a.seed)
    columns = (
        ["n_rounds"]
        + [f"xi_d_chi_{_slug(c)}" for c in chis]
        + [f"n_opt_chi_{_slug(c)}" for c in chis]
    )
    markers = [(2.0 / c) ** 2 for c in chis]
    rounds = np.arange(1, max_rounds + 1)
    xis = repetitive_dss_rows(n, *_curves(chis, rounds)).reshape(len(chis), -1)
    rows = [(*row, *markers) for row in _zip_columns(rounds, xis)]
    return SweepResult(spec, columns, rows)


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


def cmd_sample(a: argparse.Namespace) -> SweepResult:
    css = CssPrior(a.N)
    if a.protocol == "dss":
        _require_positive("chi_p", a.chi_p)  # the row function's rule, before any draw
        outcomes = sample_outcomes(css, MeasurementSetting(chi_p=a.chi_p), a.n_shots, a.seed)
        columns = ["shot", "outcome", "density", "xi_d"]
        xi_d, log_density = dss_rows(a.N, a.chi_p, outcomes)
        values = (xi_d,)
    else:
        _require_positive("chi_x", a.chi_x)
        outcomes = sample_outcomes(css, MeasurementSetting(chi_x=a.chi_x), a.n_shots, a.seed)
        columns = ["shot", "outcome", "density", "fidelity", "target_m_c"]
        fid, m_c, _, _, log_density = superposition_rows(a.N, a.chi_x, outcomes)
        values = (fid, m_c)
    fixed = {"N": a.N, "chi_x": a.chi_x, "chi_p": a.chi_p, "eta": a.eta, "n_shots": a.n_shots}
    spec = SweepSpec("sample", a.protocol, "shot", None, fixed, a.seed)
    rows = _zip_columns(np.arange(a.n_shots), (outcomes, np.exp(log_density), *values))
    return SweepResult(spec, columns, rows)


# --------------------------------------------------------------------------
# generic sweep
# --------------------------------------------------------------------------

# per protocol: the sweepable parameters, the columns, and the result columns
# after ``value`` from the parameters, any of them (N too) one value per record
SWEEP_PROTOCOLS = {
    "dss": {"params": ("chi_p", "outcome", "N"), "columns": ["value", "xi_d"],
            "rows": lambda p: dss_rows(p["N"], p["chi_p"], p["outcome"])[:1]},
    "superposition": {
        "params": ("chi_x", "outcome", "N"),
        "columns": ["value", "fidelity", "target_m_c", "separation", "width"],
        "rows": lambda p: superposition_rows(p["N"], p["chi_x"], p["outcome"])[:4],
    },
    "repetitive_dss": {
        "params": ("n", "chi_p"),
        "columns": ["value", "xi_d"],
        "rows": lambda p: [repetitive_dss_rows(p["N"], p["chi_p"], p["n"], p["outcome"])],
    },
}


def cmd_sweep(a: argparse.Namespace) -> SweepResult:
    grid = {"start": a.start, "stop": a.stop, "count": a.count, "scale": a.scale}
    fixed = {"N": a.N, "chi_x": a.chi_x, "chi_p": a.chi_p, "outcome": a.outcome, "n": a.n_rounds}
    spec = SweepSpec("sweep", a.protocol, a.param, grid, fixed, a.seed)
    protocol = SWEEP_PROTOCOLS[a.protocol]
    if a.param not in protocol["params"]:
        raise UsageError(
            f"parameter {a.param!r} is not sweepable for {a.protocol}; "
            f"choose from {protocol['params']}"
        )
    points = spec.points()
    if a.param in ("N", "n"):
        # atom and round counts: a grid point may miss its integer only by rounding
        snapped = np.rint(points)
        off = np.abs(points - snapped) > 1e-9 * np.abs(snapped)
        if off.any():
            raise UsageError(f"--param {a.param} takes integers, got {points[off][0]:.17g}")
        points = snapped
    # atom counts as Python ints, so that one past int64 reaches the atom-count check uncast
    swept = [int(n) for n in points] if a.param == "N" else points
    values = protocol["rows"]({**fixed, a.param: swept})
    return SweepResult(spec, protocol["columns"], _zip_columns(points, values))


# --------------------------------------------------------------------------
# feasibility
# --------------------------------------------------------------------------


def cmd_feasibility(a: argparse.Namespace) -> tuple[int, str]:
    # checked here, in the units typed: CavityParams sees rad/s and would
    # report --kappa -1 as -6283185.3
    if a.g <= 0 or a.kappa <= 0:
        raise UsageError("--g and --kappa must be positive")
    if a.delta == 0:
        raise UsageError("--delta must be nonzero")
    cavity = CavityParams.from_two_pi_megahertz(a.g, a.delta, a.kappa, a.np)
    report = feasibility(cavity, kind=a.kind, n_t=a.n_t, threshold=a.threshold)
    # n_t stretches only the long exponential pulse: echoed for it alone
    stretch = {"n_t": a.n_t} if a.kind == LONG_EXPONENTIAL else {}
    lines = [
        f"kind                    : {a.kind}" + (f" (n_t = {a.n_t:g})" if stretch else ""),
        f"max intracavity photons : {report.max_intracavity_photons:.6g}",
        f"dispersive bound        : {report.dispersive_bound:.6g}",
        f"chi_x bound             : {report.chi_x_bound:.6g}",
        f"chi_p bound             : {report.chi_p_bound:.6g}",
        f"ok                      : {report.ok}",
    ]
    if a.out:
        params = {"g_2pi_mhz": a.g, "delta_2pi_mhz": a.delta, "kappa_2pi_mhz": a.kappa,
                  "n_photons": a.np, "kind": a.kind, **stretch}
        payload = {"params": params, "report": vars(report), "version": __version__}
        with open(a.out, "w", encoding="utf-8", newline="") as fh:
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


def _seed(text: str) -> int:
    """Flag type for ``--seed``: numpy's generators take a whole number >= 0."""
    if not text.strip().isdecimal():  # digits alone: no sign, point or exponent
        raise argparse.ArgumentTypeError(f"must be a whole number >= 0, got {text!r}")
    return int(text)


_IO_FLAGS = (
    ("--out", {"help": "output path (default: stdout)"}),
    ("--format", {"choices": ("csv", "json"), "default": "csv"}),
    ("--seed", {"type": _seed, "default": 0}),
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


def _configured(command: str) -> list[str]:
    """``--flag=value`` tokens for the flags of ``command`` set by SPINPREP_<DEST> or the file.

    The variable's value replaces the file's; a flag set by neither is left
    out.  A file's value must be a string or a number: ``null``, ``true``, a
    list or an object is a usage error, never the text ``None``, ``False`` or
    ``[4]`` handed on as a path or a number.  The ``=`` form keeps a value
    such as ``-1e-3`` from reading as a flag.
    """
    cfg = _config_file()
    tokens = []
    for name, kw in COMMANDS[command][1]:
        dest = kw.get("dest", name.lstrip("-").replace("-", "_"))
        variable = f"SPINPREP_{dest.upper()}"
        if name.startswith("-") and (variable in os.environ or dest in cfg):
            value = os.environ.get(variable, cfg.get(dest))
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise UsageError(f"config key {dest!r} is {json.dumps(value)}; "
                                 "give a string or a number, or leave it out")
            tokens.append(f"{name}={value}")
    return tokens


@functools.cache
def _command_parser(command: str) -> _Parser:
    """The parser of one subcommand, built once: it depends only on ``COMMANDS``."""
    parser = _Parser(prog=f"spinprep {command}")
    for name, kw in COMMANDS[command][1]:
        parser.add_argument(name, **kw)
    return parser


def _listing_parser() -> _Parser:
    """The top-level parser: lists every subcommand, with no flags."""
    parser = _Parser(prog="spinprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _) in COMMANDS.items():
        sub.add_parser(command, help=help_line)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the cached parser of the subcommand it names.

    Precedence of flag values: file named by SPINPREP_CONFIG < SPINPREP_<DEST> < flags.
    The file and the variables are read again on every call, and their values
    reach the parser as flags placed before the typed ones, where the last
    occurrence of a flag wins; so a configured value is checked and reported
    like a typed one, and may supply a required flag.
    Without a subcommand in ``argv[0]`` (``--help``, none or an unknown one)
    the top-level parser lists all of them, or reports the error.
    """
    command = argv[0] if argv else None
    if command not in COMMANDS:
        return _listing_parser().parse_args(argv)
    tokens = [*_configured(command), *argv[1:]]
    return _command_parser(command).parse_args(tokens, argparse.Namespace(command=command))


def main(argv=None) -> int:
    try:
        a = _parse(sys.argv[1:] if argv is None else list(argv))
        # looked up on every call: a wrapper set on cli.cmd_<command> is the one called
        result = globals()[f"cmd_{a.command}"](a)
        if a.command == "feasibility":
            code, text = result
            # flushed here, so that a closed pipe raises inside this try and
            # not in the interpreter's exit flush
            print(text, flush=True)
            return code
        _emit(result, a.out, a.format)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull, so
        # the exit flush cannot raise again (the SIGPIPE recipe of Python's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, ValueError, OSError) as exc:
        # OSError after its subclass BrokenPipeError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
