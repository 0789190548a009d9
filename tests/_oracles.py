"""Shared closed-form oracles for the outcome-statistics and acceptance tests.

Nothing here imports ``spinprep``: each oracle is derived from the
conventions stated in the README and evaluated by independent means.
"""

import functools
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import erf
from scipy.stats import chi2


# Dense matrices are only meant for cross-checks; keep them small.
ORACLE_MAX_ATOMS = 12


def spin_matrix_oracle(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (N+1)x(N+1) matrices (Sx, Sy, Sz) in the Dicke basis.

    Standard ladder construction: <m+1| S_+ |m> = sqrt(S(S+1) - m(m+1)).
    Guarded to small N; the point of these matrices is to verify the O(N)
    diagonal formulas of the package, not to do linear algebra at scale.
    """
    if not 1 <= n_atoms <= ORACLE_MAX_ATOMS:
        raise ValueError(f"matrix oracle needs 1 to {ORACLE_MAX_ATOMS} atoms, got {n_atoms}")
    s = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - s
    sz = np.diag(m).astype(complex)
    raise_elems = np.sqrt(s * (s + 1.0) - m[:-1] * (m[:-1] + 1.0))
    sp = np.zeros((n_atoms + 1, n_atoms + 1), dtype=complex)
    sp[np.arange(1, n_atoms + 1), np.arange(n_atoms)] = raise_elems
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def stdlib_json_text(payload) -> str:
    """A result file in the stdlib's own JSON layout: sorted keys, indent 1, newline."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def mixture_centers(state, setting):
    m = np.arange(state.atom_count + 1) - state.atom_count / 2
    return -(setting.chi_x * m * m + setting.chi_p * m)


def mixture_pdf(x, state, setting):
    """Exact density of the outcome, sum_m P(m) pi^{-1/2} exp[-(x - c_m)^2].

    The mixture of variance-1/2 Gaussians evaluated in the linear domain, one
    records x levels matrix, so far-tail records underflow to 0.
    """
    p = np.abs(state.amplitudes) ** 2
    centers = mixture_centers(state, setting)
    diff = np.asarray(x, dtype=float)[..., None] - centers
    return np.exp(-diff * diff) @ p / math.sqrt(math.pi)


def log_domain_rows(amplitudes, records, chi_x, chi_p, reference_centers):
    """Posterior of each record over all N+1 levels, in the log domain.

    Row r is 2 log|a_m| - (Y_r + c_m)^2, c_m = chi_x m^2 + chi_p m, at every
    level, relative to its maximum and with no floor.  It is formed relative
    to a level j, whose center c_j is ``reference_centers[r]``, as
    2 log|a_m| - (c_m - c_j)(c_m - c_j + 2 (Y_r + c_j)), each c rounded as
    chi_x m^2 + chi_p m, so that a level near the floor's edge of a far
    record, or one of two nearly tied levels, is judged as an evaluation of
    the same sum judges it.  Returns those relative log weights and the rows
    exponentiated and normalized.
    """
    n_atoms = len(amplitudes) - 1
    m = np.arange(n_atoms + 1) - n_atoms / 2
    with np.errstate(divide="ignore"):
        two_log_mag = 2.0 * np.log(np.abs(amplitudes))
    centers = chi_x * (m * m) + chi_p * m
    c_ref = np.asarray(reference_centers, dtype=float)[:, None]
    residual = np.asarray(records, dtype=float)[:, None] + c_ref
    offset = centers - c_ref
    log_w = two_log_mag - offset * (offset + 2.0 * residual)
    log_w -= log_w.max(axis=1, keepdims=True)
    probs = np.exp(log_w)
    return log_w, probs / probs.sum(axis=1, keepdims=True)


def normalized_first(reduce, chunks=None):
    """A kernel ``reduce`` handed rows that are normalized before it reads them.

    The reference for the kernel's ``reduce(weights, mass, rows, first,
    count)``: every element of a chunk is divided by its row's mass, one
    pass over the whole chunk, and ``reduce`` then reads those probabilities
    with a mass of 1, which it divides by exactly (x / 1 is x).  So its
    values are those of a reduce that reads rows normalized in full.
    ``chunks``, if given, collects each chunk's shape.
    """

    def reference(weights, mass, rows, first, count):
        if chunks is not None:
            chunks.append(weights.shape)
        return reduce(weights / mass[:, None], np.ones_like(mass), rows, first, count)

    return reference


def decimal_posterior(amplitudes, chi_x, chi_p, record):
    """Level probabilities after one record, from the amplitudes in 60-digit decimal.

    p_k is proportional to |a_k|^2 exp[-(Y + c_k)^2], each |a_k|^2 taken
    exactly from the float amplitudes and each center c_k = chi_x m^2 + chi_p m
    rounded as a float, as the model's input; the squared residual and the
    weights are decimal, in an exponent range no weight can leave, relative
    to the largest.  No level is singled out beforehand: a level whose float
    log weight lies more than 900 below the largest one is left at 0.
    """
    n_atoms = len(amplitudes) - 1
    m = np.arange(n_atoms + 1) - n_atoms / 2
    centers = chi_x * (m * m) + chi_p * m
    occupied = np.flatnonzero(amplitudes)
    with np.errstate(divide="ignore", over="ignore"):
        rough = 2.0 * np.log(np.abs(amplitudes[occupied])) - (record + centers[occupied]) ** 2
    kept = occupied[rough >= rough.max() - 900.0]
    probs = np.zeros(n_atoms + 1)
    with localcontext() as ctx:
        ctx.prec = 60
        ctx.Emin, ctx.Emax = -(10**15), 10**15
        log_w = []
        for k in kept:
            residual = Decimal(float(record)) + Decimal(float(centers[k]))
            magnitude = Decimal(amplitudes[k].real) ** 2 + Decimal(amplitudes[k].imag) ** 2
            log_w.append(magnitude.ln() - residual * residual)
        top = max(log_w)
        weights = [(w - top).exp() for w in log_w]
        total = sum(weights)
        probs[kept] = [float(w / total) for w in weights]
    return probs


def decimal_xi_d(probs, n_atoms):
    """xi_D of level probabilities from 50-digit decimal centred moments.

    mu = sum P(m) m and Var Sz = sum P(m) (m - mu)^2 over the nonzero
    levels, each float probability taken exactly, then
    xi_D = N (Var Sz + 1/4) / (S(S+1) - Var Sz - mu^2).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        levels = np.flatnonzero(probs)
        p = [Decimal(float(probs[k])) for k in levels]
        m = [Decimal(int(k)) - Decimal(n_atoms) / 2 for k in levels]
        mu = sum(a * b for a, b in zip(p, m))
        var = sum(a * (b - mu) ** 2 for a, b in zip(p, m))
        s = Decimal(n_atoms) / 2
        return float(n_atoms * (var + Decimal("0.25")) / (s * (s + 1) - var - mu * mu))


def full_ladder_amplitudes(probs, phase):
    """Amplitudes sqrt(probs) e^{i phase} built level by level over the whole ladder.

    The post-state construction that conditions every level, occupied or
    not: ``probs`` holds all N+1 level probabilities (zeros outside a
    record's band) and ``phase`` all N+1 phases, and the product goes
    through cos and sin.
    """
    magnitude = np.sqrt(probs)
    amps = np.empty(magnitude.shape, dtype=complex)
    np.multiply(magnitude, np.cos(phase), out=amps.real)
    np.multiply(magnitude, np.sin(phase), out=amps.imag)
    return amps


def binomial_ratio(n_atoms, k, center):
    """C(N, k) / C(N, center) as an exact fraction, one factor per level stepped."""
    ratio = Fraction(1)
    for i in range(center + 1, k + 1):
        ratio *= Fraction(n_atoms - i + 1, i)
    for i in range(k + 1, center + 1):
        ratio /= Fraction(n_atoms - i + 1, i)
    return ratio


def exact_log_binomial_ratio(n_atoms, k, center):
    """log C(N, k) - log C(N, center), from the exact fraction in 40-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 40
        ratio = binomial_ratio(n_atoms, k, center)
        return float((Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln())


def exact_dss_xi_d(n_atoms, chi_p, record, reach=40):
    """xi_D of the CSS after one phase-quadrature record, in exact arithmetic.

    The posterior is p(m) ∝ C(N, N/2 + m) exp[-(Y + chi_p m)^2] (see
    :func:`dss_floor_ratio`).  The binomial weights are exact fractions
    relative to level N // 2, the Gaussian factors 45-digit decimals, and
    only the ``reach`` levels on each side of N // 2 are kept: for records
    near 0 and chi_p of order 1 the rest weigh less than e^-1000.
    """
    with localcontext() as ctx:
        ctx.prec = 45
        center = n_atoms // 2
        s = Decimal(n_atoms) / 2
        levels, weights = [], []
        for k in range(max(0, center - reach), min(n_atoms, center + reach) + 1):
            ratio = binomial_ratio(n_atoms, k, center)
            m = Decimal(k) - s
            residual = Decimal(record) + Decimal(chi_p) * m
            weights.append(
                Decimal(ratio.numerator) / Decimal(ratio.denominator) * (-residual * residual).exp()
            )
            levels.append(m)
        total = sum(weights)
        mu = sum(w * m for w, m in zip(weights, levels)) / total
        var = sum(w * (m - mu) ** 2 for w, m in zip(weights, levels)) / total
        return float(n_atoms * (var + Decimal("0.25")) / (s * (s + 1) - var - mu * mu))


def exact_log_css_level(n_atoms, k):
    """log(C(N, k) / 2^N), the CSS probability of level k, from exact integers in 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(math.comb(n_atoms, k)) / Decimal(2) ** n_atoms).ln())


def exact_css_log_density(n_atoms, chi_p, record, reach=40):
    """Log density of a phase-quadrature record on the CSS, in 40-digit decimal.

    sum_k C(N, k) 2^-N pi^{-1/2} exp[-(Y + chi_p m)^2] with m = k - N/2, over
    the ``reach`` levels on each side of the one whose center -chi_p m lies
    nearest the record: for chi_p of order 1 the rest weigh less than e^-300.
    The first level's binomial is an exact integer, and each next one takes
    the exact factor (N - k)/(k + 1).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        nearest = min(max(round(n_atoms / 2 - record / chi_p), 0), n_atoms)
        first = max(0, nearest - reach)
        level = Decimal(math.comb(n_atoms, first)) / Decimal(2) ** n_atoms
        total = Decimal(0)
        for k in range(first, min(n_atoms, nearest + reach) + 1):
            residual = Decimal(record) + Decimal(chi_p) * (Decimal(k) - Decimal(n_atoms) / 2)
            total += level * (-residual * residual).exp()
            level = level * (n_atoms - k) / (k + 1)
        return float(total.ln() - Decimal(math.pi).ln() / 2)


def lattice_gaussian_log_density(n_atoms, chi_p, record, reach=40):
    """Log density of a phase-quadrature record on the CSS of many atoms, in closed form.

    For large N the CSS level law is the lattice Gaussian
    sqrt(2/(pi N)) e^{-2 m^2/N}, m = k - N/2, up to relative corrections of
    order 1/N and m^4/N^3 (below 1e-8 for N >= 2^30 and |m| within 3 sqrt(N)/2), so
    the density is log sum_m sqrt(2/(pi N)) e^{-2 m^2/N - (Y + chi_p m)^2} - (1/2) log pi,
    summed over the ``reach`` lattice levels on each side of the center -Y/chi_p.
    """
    nearest = round(n_atoms / 2 - record / chi_p) - n_atoms / 2
    exponents = [-2.0 * m * m / n_atoms - (record + chi_p * m) ** 2
                 for m in (nearest + j for j in range(-reach, reach + 1))]
    top = max(exponents)
    log_sum = top + math.log(math.fsum(math.exp(e - top) for e in exponents))
    return log_sum + 0.5 * math.log(2.0 / (math.pi * n_atoms)) - 0.5 * math.log(math.pi)


def dense_moments(amplitudes):
    """(<Sz>, <Sz^2>, Var Sz, <Sx^2 + Sy^2>, xi_D) of dense amplitudes over all N+1 levels.

    Plain dot products over the whole ladder, in the absolute coordinate m,
    and <Sx^2 + Sy^2> = S(S+1) - <Sz^2>.
    """
    p = np.abs(amplitudes) ** 2
    n_atoms = p.size - 1
    m = np.arange(n_atoms + 1) - n_atoms / 2
    mean = p @ m
    var = p @ (m - mean) ** 2
    s = n_atoms / 2
    perp = s * (s + 1) - var - mean * mean
    return mean, var + mean * mean, var, perp, n_atoms * (var + 0.25) / perp


def dense_acceptance(amplitudes, chi_x, chi_p, target, half_width):
    """Probability that the record falls within ``half_width`` of ``target``, over all N+1 levels.

    sum_m P(m) (1/2) [erf(target + h - c_m) - erf(target - h - c_m)], with
    c_m = -(chi_x m^2 + chi_p m): the plain erf difference, which loses
    relative precision only in far tails.
    """
    p = np.abs(amplitudes) ** 2
    m = np.arange(p.size) - (p.size - 1) / 2
    centers = -(chi_x * m * m + chi_p * m)
    return 0.5 * (erf(target + half_width - centers) - erf(target - half_width - centers)) @ p


def mixture_cdf(x, state, setting):
    """Exact CDF of the outcome: mixture of variance-1/2 Gaussians."""
    p = np.abs(state.amplitudes) ** 2
    centers = mixture_centers(state, setting)
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + erf(x[..., None] - centers)) @ p


def chi_square_gof(samples, state, setting, n_bins=60, level=0.001):
    """Chi-square statistic and critical value against the exact mixture.

    Bins span +/- 4.5 sigma around the mixture mean with open tails; bins
    with expected count below 5 are merged left-to-right.
    """
    samples = np.asarray(samples, dtype=float)
    p = np.abs(state.amplitudes) ** 2
    centers = mixture_centers(state, setting)
    mean = float(p @ centers)
    var = float(p @ (centers - mean) ** 2) + 0.5
    sigma = math.sqrt(var)
    inner = np.linspace(mean - 4.5 * sigma, mean + 4.5 * sigma, n_bins - 1)
    edges = np.concatenate(([-np.inf], inner, [np.inf]))
    cdf_vals = np.concatenate(([0.0], mixture_cdf(inner, state, setting), [1.0]))
    expected = np.diff(cdf_vals) * samples.size
    observed = np.bincount(np.searchsorted(inner, samples), minlength=n_bins).astype(float)

    merged_obs, merged_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:  # fold the remainder into the last kept bin
        merged_obs[-1] += acc_o
        merged_exp[-1] += acc_e
    merged_obs = np.array(merged_obs)
    merged_exp = np.array(merged_exp)
    stat = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    critical = float(chi2.ppf(1.0 - level, df=merged_obs.size - 1))
    return stat, critical


def dss_floor_ratio(n_atoms, chi_p):
    """xi_D (N+2) after a phase-quadrature record Y = 0 on the x-polarized CSS.

    The outcome density of level m is a variance-1/2 Gaussian centred at
    -chi_p m, i.e. |<m|M(Y)|m>|^2 = pi^{-1/2} exp[-(Y + chi_p m)^2].  The CSS
    populations are C(N, N/2 + m) / 2^N, so by Bayes' rule the record Y = 0
    leaves

        p(m) ∝ C(N, N/2 + m) exp(-chi_p^2 m^2),

    and xi_D = N (Var Sz + 1/4) / (S(S+1) - <Sz^2>) with S = N/2.  The
    binomial weights come from ``math.lgamma`` and are exponentiated relative
    to their peak, so no factorial overflows.
    """
    s = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - s
    log_w = np.array(
        [
            math.lgamma(n_atoms + 1) - math.lgamma(k + 1) - math.lgamma(n_atoms - k + 1)
            for k in range(n_atoms + 1)
        ]
    ) - chi_p * chi_p * m * m
    p = np.exp(log_w - log_w.max())
    p /= p.sum()
    mean = float(p @ m)
    second = float(p @ (m * m))
    var = second - mean * mean
    xi_d = n_atoms * (var + 0.25) / (s * (s + 1.0) - second)
    return xi_d * (n_atoms + 2)


@functools.cache  # about a second of quadrature, shared by the tests that need it
def flat_top_peak():
    """max_t beta0(t)^2 for the flat-top spectral pulse, in the frequency domain.

    The drive is the unitary cosine transform of S(w) = sqrt(8/(3 pi))
    (1 + w^2)^{-3/2}, which has unit L2(dw) mass:
    beta_in(t) = sqrt(2/pi) int_0^inf S(w) cos(w t) dw.  The causal kernel
    sqrt(2) e^{-tau} answers cos(w t) with
    sqrt(2) Re[e^{i w t} / (1 + i w)] = sqrt(2) (cos w t + w sin w t) / (1 + w^2),
    so

        beta0(t) = (2 / sqrt(pi)) int_0^inf S(w) (cos w t + w sin w t) / (1 + w^2) dw.

    Both terms are Fourier integrals over [0, inf) and go to QUADPACK's
    weighted rules (``weight='cos'``/``'sin'``).  The peak is located on a
    coarse grid over t in [-4, 4] and refined by bounded Brent search.
    """
    norm = math.sqrt(8.0 / (3.0 * math.pi))

    def beta0(t):
        cos_part = quad(lambda w: (1.0 + w * w) ** -2.5, 0.0, np.inf, weight="cos", wvar=t)[0]
        sin_part = quad(lambda w: w * (1.0 + w * w) ** -2.5, 0.0, np.inf, weight="sin", wvar=t)[0]
        return 2.0 / math.sqrt(math.pi) * norm * (cos_part + sin_part)

    grid = np.linspace(-4.0, 4.0, 81)
    start = grid[int(np.argmax([beta0(t) ** 2 for t in grid]))]
    best = minimize_scalar(
        lambda t: -beta0(t) ** 2,
        bounds=(start - 0.1, start + 0.1),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return -best.fun


def stretched_peak(n_t):
    """max_t beta0(t)^2 for the stretched exponential n_t^{-1/2} e^{-|t|/n_t}.

    With a = 1/n_t <= 1 the drive has unit L2 mass, and the causal kernel
    sqrt(2) e^{-tau} gives beta0(t) = sqrt(2a) e^{a t} / (1 + a) for t <= 0
    (increasing) and, splitting the convolution at t' = 0, for t >= 0

        beta0(t) = sqrt(2a) [e^{-t} / (1 + a) + (e^{-a t} - e^{-t}) / (1 - a)].

    Setting the derivative to zero gives e^{-(1-a) t*} = (1 + a) / 2, i.e.
    t* = ln(2 / (1 + a)) / (1 - a), where the bracket collapses to
    e^{-a t*}: the peak is 2a ((1 + a) / 2)^{2a / (1 - a)}.  Its exponent is
    taken through log1p, whose a -> 1 limit gives the exponential pulse's
    peak 2/e at n_t = 1.
    """
    a = 1.0 / n_t
    half_gap = (1.0 - a) / 2.0
    log_decay = -a if half_gap == 0.0 else a * math.log1p(-half_gap) / half_gap
    return 2.0 * a * math.exp(log_decay)
