"""The four benchmark workloads: seeded inputs, operations and their checks.

An operation is one in-process ``spinprep.cli.main([...])`` call or one
public-API pipeline.  A workload is a list of operations that makes up one
*pass*; every pass of a workload runs the same kinds of operation at the same
sizes, so per-pass counts repeat exactly.  Only ``pulses`` draws fresh
parameters for each pass, because ``feasibility`` caches pulse builds per
``(kind, n_t)`` inside the process and each pipeline must pay its build.

Functions of spinprep are looked up on their module at call time (never
bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from spinprep import cli, measurement, protocols, pulse_optics, spin_core

import oracles
from oracles import require

NAMES = ("shots", "pulses", "tables", "large_n")


@dataclass
class Op:
    kind: str  # operation class; failures are also reported per kind
    run: Callable[[], object]
    check: Callable[[object], None]
    items: int  # work items at the stated input size, see Workload.item


class Workload:
    name: str
    item: str

    def pass_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def self_checks(self) -> list[tuple[str, str | None]]:
        """Whole-run checks as (name, error message or None)."""
        return []


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> str:
    """Run ``spinprep`` in-process and return what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"spinprep {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def parse_table(text: str, fmt: str) -> tuple[dict, list[str], np.ndarray]:
    """Spec, column names and rows of an emitted CSV or JSON table."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["spec"], payload["columns"], np.array(payload["rows"], dtype=float)
    spec, columns, rows = None, None, []
    for line in text.splitlines():
        if line.startswith("# spec="):
            spec = json.loads(line[len("# spec="):])
        elif not line or line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    require(spec is not None and columns is not None, "table lacks spec or header")
    return spec, columns, np.array(rows, dtype=float)


def _column(columns, rows, name) -> np.ndarray:
    require(name in columns, f"missing column {name!r}")
    return rows[:, columns.index(name)]


def _check_lattice_mc(m_c: float, n_atoms: int) -> None:
    k = m_c + n_atoms / 2.0
    require(abs(k - round(k)) < 1e-9 and 0.0 <= m_c <= n_atoms / 2.0,
            f"target m_c {m_c} is not a non-negative lattice point for N = {n_atoms}")


# ---------------------------------------------------------------------------
# shots: per-shot sampling loop through measurement -> spin_core -> protocols
# ---------------------------------------------------------------------------

N_SHOTS = 2000
# (protocol, N, strength range); the slowest class, superposition at N = 1000,
# runs three times per pass so that the tail percentile stays inside it
SHOT_CLASSES = (
    ("dss", 40, (0.1, 0.5)),
    ("dss", 100, (0.1, 0.5)),
    ("dss", 1000, (0.05, 0.2)),
    ("superposition", 40, (0.05, 0.2)),
    ("superposition", 100, (0.02, 0.1)),
    ("superposition", 1000, (0.002, 0.01)),
    ("superposition", 1000, (0.002, 0.01)),
    ("superposition", 1000, (0.002, 0.01)),
)


def _check_sample(text: str, protocol: str, n_atoms: int, n_shots: int, seed: int) -> None:
    spec, columns, rows = parse_table(text, "csv")
    require(spec["fixed"]["N"] == n_atoms and spec["seed"] == seed, "spec does not echo inputs")
    require(rows.shape[0] == n_shots, f"{rows.shape[0]} rows for {n_shots} shots")
    require(np.array_equal(_column(columns, rows, "shot"), np.arange(n_shots)), "shot index")
    for d in _column(columns, rows, "density"):
        oracles.check_density(d)
    if protocol == "dss":
        for xi in _column(columns, rows, "xi_d"):
            oracles.check_xi_d(xi, n_atoms)
    else:
        for f in _column(columns, rows, "fidelity"):
            oracles.check_fidelity(f)
        for m_c in np.unique(_column(columns, rows, "target_m_c")):
            _check_lattice_mc(m_c, n_atoms)


class Shots(Workload):
    name, item = "shots", "shots"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.argvs = []
        for protocol, n_atoms, (lo, hi) in SHOT_CLASSES:
            flag = "--chi-p" if protocol == "dss" else "--chi-x"
            cli_seed = int(rng.integers(2**31))
            argv = ["sample", protocol, "--N", str(n_atoms), flag, repr(_uniform(rng, lo, hi)),
                    "--eta", repr(_uniform(rng, 0.0, 0.1)), "--n-shots", str(N_SHOTS),
                    "--seed", str(cli_seed)]
            self.argvs.append((argv, protocol, n_atoms, cli_seed))
        rng.shuffle(self.argvs)

    def pass_ops(self, k):
        return [
            Op(f"sample {protocol} N={n}", lambda argv=argv: run_cli(argv),
               lambda text, p=protocol, n=n, s=s: _check_sample(text, p, n, N_SHOTS, s),
               N_SHOTS)
            for argv, protocol, n, s in self.argvs
        ]

    def self_checks(self):
        argv = self.argvs[0][0]
        same = run_cli(argv) == run_cli(argv)
        return [("same-seed sample rerun is byte-identical",
                 None if same else f"spinprep {' '.join(argv)} differs between runs")]


# ---------------------------------------------------------------------------
# pulses: build -> response -> local oscillator -> strengths / peak / feasibility
# ---------------------------------------------------------------------------

PIPELINES_PER_KIND = 4
# Grid steps per kind and the largest dt.  Each pipeline draws dt from
# (0.9, 1] x that and sets span = steps/2 x dt, so every grid is distinct
# while its point count, and so its cost, is the same in every pass.
PULSE_GRIDS = {
    "exponential": (12000, 0.005),
    "long_exponential": (12000, 0.01),
    "optimal_x_spectral": (2400, 0.01),
}
LONG_N_T = 2.0
# feasibility() caches its default-grid build per (kind, n_t).  A distinct
# n_t per call, jittered below the 1/12000 that would change the default
# long-pulse grid size, keeps the cache cold as it is for each CLI process.
N_T_JITTER = 1e-5


def _cavity_mhz(rng) -> tuple[float, float, float, float]:
    """(g, delta, kappa, n_photons) with rates in 2 pi x MHz."""
    return (_uniform(rng, 0.3, 0.5), _uniform(rng, 2000.0, 4000.0), 1.0,
            _uniform(rng, 50.0, 200.0))


def _pipeline(kind, n_t, span, dt, cavity):
    pulse = pulse_optics.build_pulse(kind, n_t=n_t, span=span, dt=dt)
    pulse = pulse_optics.response_functions(pulse)
    shape, phi = ("beta2", 0.0) if kind == "optimal_x_spectral" else ("beta1", math.pi / 2)
    pulse = pulse_optics.set_local_oscillator(pulse, shape)
    chi_x, chi_p = pulse_optics.strengths_numeric(pulse, cavity, phi)
    return pulse, chi_x, chi_p, pulse_optics.peak_intracavity(pulse)


def _check_pipeline(out, kind, n_t, steps, cavity) -> None:
    pulse, chi_x, chi_p, peak = out
    t = pulse.times
    require(t.size == steps + 1, f"{t.size} grid points, expected {steps + 1}")
    for label, values in (("pulse", pulse.beta_in), ("local oscillator", pulse.beta_lo)):
        mass = float(np.trapezoid(np.abs(values) ** 2, t))
        require(abs(mass - 1.0) <= 1e-4, f"{label} L2 mass {mass} is not 1")
    ratio, n_photons = cavity.omega / cavity.kappa, cavity.n_photons
    if kind == "optimal_x_spectral":
        ref = oracles.chi_x_spectral(ratio, n_photons)
        require(oracles.relative_error(chi_x, ref) <= 1e-3, f"chi_x {chi_x} vs closed form {ref}")
        require(0.0 < peak <= 1.0, f"peak intracavity {peak} outside (0, 1]")
        return
    if kind == "exponential":
        ref, a_n_t = oracles.chi_p_exponential(ratio, n_photons), 1.0
    else:
        ref, a_n_t = oracles.chi_p_stretched(ratio, n_photons, n_t), n_t
    require(oracles.relative_error(chi_p, ref) <= 1e-4, f"chi_p {chi_p} vs closed form {ref}")
    ref_peak = oracles.peak_intracavity_exponential(a_n_t)
    require(oracles.relative_error(peak, ref_peak) <= 1e-4, f"peak {peak} vs closed form {ref_peak}")


def _check_feasibility(text, kind, n_t, g, delta, kappa, n_photons) -> None:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    scale = 2.0 * math.pi * 1e6
    g_r, delta_r, kappa_r = g * scale, delta * scale, kappa * scale
    expected = {
        "dispersive bound": (delta_r / g_r) ** 2,
        "chi_x bound": math.sqrt(42.0) * g_r**3 / (kappa_r**2 * abs(delta_r)),
        "chi_p bound": g_r * math.sqrt(20.0 * n_t * math.e) / kappa_r,
    }
    if kind != "optimal_x_spectral":
        stretch = n_t if kind == "long_exponential" else 1.0
        expected["max intracavity photons"] = n_photons * oracles.peak_intracavity_exponential(stretch)
    for key, ref in expected.items():
        require(key in fields, f"feasibility output lacks {key!r}")
        value = float(fields[key])
        require(oracles.relative_error(value, ref) <= 1e-4, f"{key} {value} vs closed form {ref}")
    photons = float(fields["max intracavity photons"])
    require(0.0 < photons <= n_photons, f"peak photons {photons} outside (0, N_p]")
    require(fields.get("ok") == "True", "feasibility check did not pass")


class Pulses(Workload):
    name, item = "pulses", "grid points"

    def __init__(self, seed: int):
        self.seed = seed

    def pass_ops(self, k):
        rng = np.random.default_rng([self.seed, k])
        ops = []
        for kind, (steps, dt_max) in PULSE_GRIDS.items():
            for _ in range(PIPELINES_PER_KIND):
                dt = dt_max * _uniform(rng, 0.9, 1.0)
                n_t = LONG_N_T + N_T_JITTER * rng.uniform() if kind == "long_exponential" else 1.0
                g, delta, kappa, n_photons = _cavity_mhz(rng)
                cavity = pulse_optics.CavityParams.from_two_pi_megahertz(g, delta, kappa, n_photons)
                args = (kind, n_t, steps / 2 * dt, dt, cavity)
                ops.append(Op(f"pipeline {kind}", lambda a=args: _pipeline(*a),
                              lambda out, kind=kind, n_t=n_t, steps=steps, c=cavity:
                              _check_pipeline(out, kind, n_t, steps, c),
                              steps + 1))
        for kind in PULSE_GRIDS:
            base = LONG_N_T if kind == "long_exponential" else 1.0
            n_t = base + N_T_JITTER * rng.uniform()
            g, delta, kappa, n_photons = _cavity_mhz(rng)
            argv = ["feasibility", "--kind", kind, "--n-t", repr(n_t), "--g", repr(g),
                    "--delta", repr(delta), "--kappa", repr(kappa), "--np", repr(n_photons)]
            ops.append(Op(f"cli feasibility {kind}", lambda argv=argv: run_cli(argv),
                          lambda text, kind=kind, p=(n_t, g, delta, kappa, n_photons):
                          _check_feasibility(text, kind, *p),
                          0))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# tables: every figure table in CSV and JSON, plus serial sweeps at N = 2000
# ---------------------------------------------------------------------------

SWEEP_N = 2000
SWEEP_COUNT = 400
# rows of each figure table at its default flags: the throughput items
FIG_ROWS = {("fig2", "a"): 101, ("fig2", "b"): 101, ("fig2", "c"): 25,
            ("fig3", "a"): 41, ("fig3", "b"): 40, ("fig3", "c"): 56,
            ("fig4", "a"): 41, ("fig4", "b"): 40, ("fig4", "c"): 40}


def _slug(x: float) -> str:
    """Number as it appears in the figure tables' column names."""
    return f"{x:g}".replace(".", "p").replace("-", "m")


def _check_probability_columns(columns, rows, prefix, n_atoms) -> None:
    m = _column(columns, rows, "m")
    require(np.array_equal(m, np.arange(n_atoms + 1) - n_atoms / 2.0), "m column is not -S..S")
    cols = [c for c in columns if c.startswith(prefix)]
    require(bool(cols), f"no {prefix}* columns")
    for c in cols:
        p = _column(columns, rows, c)
        require(bool(np.all(p >= 0.0)) and abs(float(p.sum()) - 1.0) <= 1e-9,
                f"{c} is not a probability distribution")


def _check_xi_columns(columns, rows, n_atoms) -> None:
    cols = [c for c in columns if c.startswith("xi_d")]
    require(bool(cols), "no xi_d columns")
    for c in cols:
        for xi in _column(columns, rows, c):
            oracles.check_xi_d(xi, n_atoms)


def _check_fig(text, fmt, fig, sub) -> None:
    spec, columns, rows = parse_table(text, fmt)
    require(spec["command"] == fig and spec["subvariant"] == sub, "spec does not echo command")
    require(rows.shape[0] == FIG_ROWS[fig, sub], f"{rows.shape[0]} rows")
    fixed = spec["fixed"]
    if fig == "fig2" and sub in "ab":
        _check_probability_columns(columns, rows, "p_", fixed["N"])
    elif fig == "fig2":
        for c in columns[1:]:
            for f in _column(columns, rows, c):
                oracles.check_fidelity(f)
    elif fig == "fig3" and sub == "b":
        for n in fixed["N"]:
            for xi in _column(columns, rows, f"xi_d_n{n}"):
                oracles.check_xi_d(xi, n)
    elif fig == "fig3" and sub == "c":
        for n, xi, ideal, scaled in rows:
            oracles.check_xi_d(xi, int(n))
            require(oracles.relative_error(ideal, 1.0 / (n + 2)) <= 1e-15, "xi_d_ideal is not 1/(N+2)")
            require(oracles.relative_error(scaled, xi * (n + 2)) <= 1e-12, "xi_d (N+2) column")
    elif fig == "fig4" and sub == "c":
        _check_xi_columns(columns, rows, fixed["N"])
        for chi in fixed["chi_p"]:
            for marker in _column(columns, rows, f"n_opt_chi_{_slug(chi)}"):
                require(oracles.relative_error(marker, (2.0 / chi) ** 2) <= 1e-12,
                        "n_opt marker is not (2/chi_p)^2")
    else:
        _check_xi_columns(columns, rows, fixed["N"])


def _check_sweep(text, fmt, protocol, start, stop, chi_x) -> None:
    spec, columns, rows = parse_table(text, fmt)
    require(rows.shape[0] == SWEEP_COUNT, f"{rows.shape[0]} sweep rows")
    values = _column(columns, rows, "value")
    require(np.allclose(values, np.linspace(start, stop, SWEEP_COUNT), rtol=1e-12, atol=0.0),
            "sweep grid")
    if protocol != "superposition":
        for xi in _column(columns, rows, "xi_d"):
            oracles.check_xi_d(xi, SWEEP_N)
        return
    for y, f, m_c, sep, width in rows:
        oracles.check_fidelity(f)
        _check_lattice_mc(m_c, SWEEP_N)
        require(oracles.relative_error(sep, 2.0 * math.sqrt(-y / chi_x)) <= 1e-12, "separation")
        require(oracles.relative_error(width, 1.0 / (2.0 * math.sqrt(-y * chi_x))) <= 1e-12, "width")


class Tables(Workload):
    name, item = "tables", "rows"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        cli_seed = str(int(rng.integers(2**31)))
        self.specs = []
        for fig in ("fig2", "fig3", "fig4"):
            for sub in "abc":
                for fmt in ("csv", "json"):
                    argv = [fig, sub, "--format", fmt, "--seed", cli_seed]
                    self.specs.append((f"{fig} {sub}", argv,
                                       lambda t, fmt=fmt, fig=fig, sub=sub: _check_fig(t, fmt, fig, sub),
                                       FIG_ROWS[fig, sub]))
        chi_x = _uniform(rng, 0.005, 0.01)
        sweeps = {
            "dss": ("chi_p", _uniform(rng, 0.05, 0.1), _uniform(rng, 1.5, 2.0), []),
            "superposition": ("outcome", -chi_x * _uniform(rng, 80.0, 100.0) ** 2,
                              -chi_x * _uniform(rng, 2.0, 5.0) ** 2, ["--chi-x", repr(chi_x)]),
            "repetitive_dss": ("chi_p", _uniform(rng, 0.05, 0.1), _uniform(rng, 1.0, 2.0),
                               ["--n", str(int(rng.integers(10, 31)))]),
        }
        for protocol, (param, start, stop, extra) in sweeps.items():
            for fmt in ("csv", "json"):
                argv = ["sweep", protocol, "--param", param, "--start", repr(start),
                        "--stop", repr(stop), "--count", str(SWEEP_COUNT), "--N", str(SWEEP_N),
                        "--format", fmt, "--seed", cli_seed, *extra]
                self.specs.append((f"sweep {protocol}", argv,
                                   lambda t, fmt=fmt, p=protocol, a=start, b=stop:
                                   _check_sweep(t, fmt, p, a, b, chi_x),
                                   SWEEP_COUNT))
        rng.shuffle(self.specs)

    def pass_ops(self, k):
        return [Op(kind, lambda argv=argv: run_cli(argv), check, rows)
                for kind, argv, check, rows in self.specs]


# ---------------------------------------------------------------------------
# large_n: per-level vector cost, memory and far-tail edge records
# ---------------------------------------------------------------------------

LARGE_N = 100_000
PDF_N, PDF_GRID = 10_000, 513
# acceptance_probability materializes a (grid x levels) matrix; at N = 10^5 it
# peaks near 4.7 GB, so it runs at 3 x 10^4 (about 1.5 GB) where the same
# O(grid x levels) cost still shows
ACCEPT_N = 30_000
REPEAT_N, REPEAT_ROUNDS = 1000, 20
FAR_N, FAR_CHI_P = 3000, 1.0
# records -1000 ... -1250 fail in spinprep 0.1.0 (underflowing linear
# amplitudes); they stay in the workload so the failure share is measured
FAR_RECORDS = tuple(float(y) for y in range(-1250, 1, 50))


def _record_sigma(n_atoms: int, chi_p: float) -> float:
    """Std. dev. of the phase-quadrature record drawn from the CSS."""
    return math.sqrt(0.5 + chi_p * chi_p * n_atoms / 4.0)


def _outcome_grid_op(chi_p, lo, hi):
    css = spin_core.make_css(PDF_N)
    grid = np.linspace(lo, hi, PDF_GRID)
    return grid, measurement.outcome_pdf(css, measurement.MeasurementSetting(chi_p=chi_p), grid)


def _check_outcome_grid(out, chi_p) -> None:
    grid, pdf = out
    require(bool(np.all(np.isfinite(pdf)) and np.all(pdf > 0.0)), "density not finite and positive")
    p = oracles.css_probabilities(PDF_N)
    ref = oracles.mixture_window_probability(
        p, oracles.record_centers(PDF_N, 0.0, chi_p), grid[0], grid[-1])
    mass = float(simpson(pdf, x=grid))
    require(abs(mass - ref) <= 1e-6, f"integrated density {mass} vs erf mixture {ref}")


def _acceptance_op(chi_p, target, half_width):
    css = spin_core.make_css(ACCEPT_N)
    setting = measurement.MeasurementSetting(chi_p=chi_p)
    return measurement.acceptance_probability(css, setting, target, half_width)


def _check_acceptance(prob, chi_p, target, half_width) -> None:
    ref = oracles.mixture_window_probability(
        oracles.css_probabilities(ACCEPT_N), oracles.record_centers(ACCEPT_N, 0.0, chi_p),
        target - half_width, target + half_width)
    require(abs(prob - ref) <= 1e-8, f"acceptance probability {prob} vs erf mixture {ref}")


class LargeN(Workload):
    name, item = "large_n", "level-records"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        s = []
        for _ in range(4):
            chi = _uniform(rng, 0.01, 0.05)
            y = _uniform(rng, -2.0, 2.0) * _record_sigma(LARGE_N, chi)
            s.append(("prepare_dss N=1e5", lambda a=(LARGE_N, chi, y): protocols.prepare_dss(*a),
                      lambda r: oracles.check_xi_d(r.xi_d, LARGE_N), LARGE_N + 1))
        for _ in range(4):
            chi = _uniform(rng, 1e-4, 3e-4)
            y = -chi * _uniform(rng, 40.0, 200.0) ** 2
            eta = _uniform(rng, 0.0, 0.01)
            s.append(("prepare_superposition N=1e5",
                      lambda a=(LARGE_N, chi, y, eta): protocols.prepare_superposition(*a),
                      lambda r: oracles.check_fidelity(r.fidelity_vs_target), LARGE_N + 1))
        chi = _uniform(rng, 0.02, 0.05)
        half = 2.5 * _record_sigma(PDF_N, chi)
        s.append(("outcome_pdf N=1e4", lambda a=(chi, -half, half): _outcome_grid_op(*a),
                  lambda out, chi=chi: _check_outcome_grid(out, chi), (PDF_N + 1) * PDF_GRID))
        for _ in range(3):
            chi = _uniform(rng, 0.02, 0.05)
            a = (chi, _uniform(rng, -1.0, 1.0) * _record_sigma(ACCEPT_N, chi), _uniform(rng, 2.0, 10.0))
            s.append(("acceptance_probability N=3e4", lambda a=a: _acceptance_op(*a),
                      lambda prob, a=a: _check_acceptance(prob, *a), ACCEPT_N + 1))
        for _ in range(4):
            a = (REPEAT_N, _uniform(rng, 0.05, 0.2), REPEAT_ROUNDS, "sampled", int(rng.integers(2**31)))
            s.append(("repetitive_dss sampled N=1e3",
                      lambda a=a: protocols.repetitive_dss(*a),
                      lambda r: oracles.check_xi_d(r.xi_d, REPEAT_N),
                      (REPEAT_N + 1) * REPEAT_ROUNDS))
        for y in FAR_RECORDS:
            s.append(("prepare_dss far tail N=3000",
                      lambda y=y: protocols.prepare_dss(FAR_N, FAR_CHI_P, y),
                      lambda r: oracles.check_xi_d(r.xi_d, FAR_N), FAR_N + 1))
        order = rng.permutation(len(s))
        self.ops = [Op(*s[i]) for i in order]

    def pass_ops(self, k):
        return self.ops


def build(name: str, seed: int) -> Workload:
    return {"shots": Shots, "pulses": Pulses, "tables": Tables, "large_n": LargeN}[name](seed)
