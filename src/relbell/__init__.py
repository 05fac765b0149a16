"""Relativistic spin correlations for massive spin-1/2 singlet pairs.

The package computes the momentum dependence of two-particle spin
correlations, the resulting CHSH Bell averages, and the consequences for
an entanglement-based key distribution protocol whose eavesdropper check
must use a motion-corrected threshold instead of the rest-frame bound.
"""

from .bell import (
    DEFAULT_CONFIG,
    TSIRELSON_BOUND,
    BellConfig,
    ScanTable,
    bell_average_mc,
    bell_average_sharp,
    chsh_from_beta,
    corrected_threshold,
    scan_figure,
)
from .correlator import (
    CorrelatorEstimate,
    correlator_integrand,
    correlator_mc,
    correlator_sharp,
    kernel_from_beta,
)
from .distributions import (
    CorrelatedGaussian,
    JointGaussian,
    MomentumDistribution,
    Sharp,
)
from .ekert import (
    MIN_TEST_ROUNDS,
    BellTestResult,
    InterceptResend,
    ProtocolConfig,
    ProtocolTranscript,
    bell_test,
    run_protocol,
    verdict,
)
from .errors import DegenerateObservableError, DomainError, UndersampledTestError
from .kinematics import (
    DEGENERACY_TOL,
    FourVector,
    ParticleKinematics,
    SPIN_GENERATORS,
    beta_from_momentum,
    boosted_spin_axis,
    commutator_norm,
    minkowski_dot,
    momentum_for_beta,
    pl_eigenvalue,
    spin_observable,
)

__version__ = "0.1.0"

__all__ = [
    "BellConfig",
    "BellTestResult",
    "CorrelatedGaussian",
    "CorrelatorEstimate",
    "DEFAULT_CONFIG",
    "DEGENERACY_TOL",
    "DegenerateObservableError",
    "DomainError",
    "FourVector",
    "InterceptResend",
    "JointGaussian",
    "MIN_TEST_ROUNDS",
    "MomentumDistribution",
    "ParticleKinematics",
    "ProtocolConfig",
    "ProtocolTranscript",
    "SPIN_GENERATORS",
    "ScanTable",
    "Sharp",
    "TSIRELSON_BOUND",
    "UndersampledTestError",
    "bell_average_mc",
    "bell_average_sharp",
    "bell_test",
    "beta_from_momentum",
    "boosted_spin_axis",
    "chsh_from_beta",
    "commutator_norm",
    "corrected_threshold",
    "correlator_integrand",
    "correlator_mc",
    "correlator_sharp",
    "kernel_from_beta",
    "minkowski_dot",
    "momentum_for_beta",
    "pl_eigenvalue",
    "run_protocol",
    "scan_figure",
    "spin_observable",
    "verdict",
]
