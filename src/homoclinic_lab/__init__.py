"""Computational laboratory for the principal algebraic action of
f = M - a - b over the free group and Z^2.

Exact layers: reduced-word and lattice arithmetic (groups), convolution
with 1/f and the homoclinic kernel 1/f* and division with witnesses
(ring), pi bounds and rational enclosures of cos/sin (intervals), the
window parametrization and its lift (homoclinic), symbolic covers with the
carry machine and the allowed SFT patterns (symbolic), exact transform
values of Haar measure, the int 0 or 1, with membership decided by a
quotient or a witness (spectral).
Statistical layer: seeded counter-based experiments (montecarlo) gated by
the acceptance suite (acceptance) behind the homoclinic-lab CLI (cli).
"""

from .groups import F2, Z2, GroupMismatch, WindowTooLarge, ball, sphere
from .homoclinic import (
    Configuration,
    TorusValue,
    four_cover_lift,
    homoclinic_point,
    phi_exact,
    phi_windowed,
    xf_residual,
)
from .montecarlo import (
    EnclosureTooWide,
    ExperimentConfig,
    collision_search,
    empirical_fourier,
    haar_window_test,
    sample_config,
    tau_invariance_test,
)
from .ring import (
    NotDivisible,
    PolyF,
    RingElement,
    divide_by_f,
    parse_ring_element,
    quotient_coordinates,
)
from .spectral import (
    RadiusInsufficient,
    Witness,
    haar_indicator_check,
    mu_hat,
    rational_witness,
)
from .symbolic import (
    BoundaryOverflow,
    CarryResult,
    Tree,
    allowed_patterns,
    carry_add,
    catalan,
    enumerate_trees,
    partition_mass,
    pattern_completions,
    percolation_path,
    reduce_cover,
)

__version__ = "0.1.0"

__all__ = [
    "F2", "Z2", "GroupMismatch", "WindowTooLarge", "ball", "sphere",
    "Configuration", "TorusValue", "four_cover_lift", "homoclinic_point",
    "phi_exact", "phi_windowed", "xf_residual",
    "EnclosureTooWide", "ExperimentConfig", "collision_search",
    "empirical_fourier", "haar_window_test", "sample_config",
    "tau_invariance_test",
    "NotDivisible", "PolyF", "RingElement", "divide_by_f",
    "parse_ring_element", "quotient_coordinates",
    "RadiusInsufficient", "Witness",
    "haar_indicator_check", "mu_hat", "rational_witness",
    "BoundaryOverflow", "CarryResult", "Tree",
    "allowed_patterns", "carry_add", "catalan", "enumerate_trees",
    "partition_mass", "pattern_completions", "percolation_path",
    "reduce_cover",
    "__version__",
]
