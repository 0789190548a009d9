"""Conditional preparation of collective atomic spin states by pulsed
cavity homodyne measurement: Dicke-basis states, Gaussian measurement
back-action, pulse response functions, and the preparation protocols
built from them."""

__version__ = "0.9.0"

from .spin_core import (
    CssPrior,
    ObservableReport,
    SpinEnsembleState,
    css_log_window,
    dicke_squeezing,
    fidelity,
    make_css,
    make_dicke,
    make_superposition_target,
    observables,
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
    response_functions,
    set_local_oscillator,
    strengths_numeric,
)
from .measurement import (
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
