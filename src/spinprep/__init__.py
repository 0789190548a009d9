"""Conditional preparation of collective atomic spin states by pulsed
cavity homodyne measurement: Dicke-basis states, Gaussian measurement
back-action, pulse response functions, and the preparation protocols
built from them."""

__version__ = "0.1.0"

from .spin_core import (
    ObservableReport,
    SpinEnsembleState,
    dicke_squeezing,
    fidelity,
    log_css_amplitudes,
    make_css,
    make_dicke,
    make_superposition_target,
    observables,
    prob_distribution,
    spin_matrix_oracle,
)
from .pulse_optics import (
    EXPONENTIAL,
    LONG_EXPONENTIAL,
    OPTIMAL_X_SPECTRAL,
    CavityParams,
    FeasibilityReport,
    PulseGrid,
    accumulated_phase,
    build_pulse,
    feasibility,
    peak_intracavity,
    pulse_to_csv,
    response_functions,
    set_local_oscillator,
    strengths_numeric,
)
from .measurement import (
    MeasurementRecord,
    MeasurementSetting,
    PosteriorError,
    acceptance_probability,
    apply_measurement,
    compose,
    outcome_pdf,
    posterior_batch,
    sample_outcome,
    sample_outcomes,
)
from .protocols import (
    DssResult,
    LongPulsePlan,
    SuperpositionResult,
    dss_rows,
    dss_with_repeated_outcome,
    long_pulse_plan,
    prepare_dss,
    prepare_superposition,
    repetitive_dss,
    repetitive_dss_rows,
    superposition_rows,
)
