"""Error scattering model and reconciliation simulator for QKD raw keys.

The package has four layers: a numeric kernel for log gamma ratios,
truncated hypergeometric series and the incomplete-beta continued
fraction (:mod:`special_functions`);
the gamma-mixed Poisson error model with closed-form count and parity
probabilities plus a seeded sampler (:mod:`error_model`); a deterministic
two-party simulator of the BBBSS and Cascade interactive reconciliation
protocols with exact leakage accounting (:mod:`reconciliation`); and a
brute-force / Monte Carlo validation harness (:mod:`validation`).  The
``coxcascade`` command line exposes all of it.
"""

from .error_model import (
    ErrorPattern,
    GammaIntensity,
    ScatterSample,
    TimeUnitLayout,
    cdf,
    mean,
    p_odd,
    p_odd_finite,
    pmf,
    recommend_block_size,
    sample_error_pattern,
    sample_process,
    tail,
)
from .reconciliation import (
    BBBSS,
    CASCADE,
    CascadeConfig,
    Event,
    KeyPair,
    ProtocolError,
    ReconcileOutcome,
    Transcript,
    bits_from_string,
    make_key_pair,
    reconcile,
)
from .special_functions import (
    SeriesNonConvergence,
    SeriesSum,
    hyp2f1_one_sum,
    hyp3f2_sum,
    incomplete_beta_cf,
    ln_pochhammer,
)
from .validation import (
    CheckRecord,
    run_suites,
)

__version__ = "0.1.0"
