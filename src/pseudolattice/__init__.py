"""Spectral pseudo-lattice detection and monodromy for perturbed
integrable systems.

The package synthesizes the asymptotic eigenvalue clouds of weakly
non-selfadjoint perturbations of two-degree-of-freedom integrable
Hamiltonians, detects their local lattice structure blind from the point
cloud, and computes the integer monodromy of the resulting chart atlas
along loops in the value plane, validated against the classical monodromy
of the action atlas.
"""

from .averaging import time_average, torus_average
from .detect import (
    DetectionError,
    HChart,
    detect_basis,
    fit_hchart,
    gauge_alignment,
    invert_leading,
    label_lattice,
)
from .diophantine import (
    DiophantineParams,
    bad_measure_estimate,
    good_margin,
)
from .models import (
    ActionChart,
    ChampagneModel,
    FlatModel,
    ModelError,
    ParameterError,
    PipelineError,
    Rect,
    action_coords,
    chart_to_text,
    make_champagne_model,
    make_flat_model,
)
from .monodromy import (
    MonodromyClass,
    MonodromyError,
    PseudoChartAtlas,
    TransitionMatrix,
    classical_monodromy,
    cocycle_check,
    compare_monodromies,
    cover_loop,
    loop_monodromy,
    monodromy_report,
    transition_matrix,
)
from .pipeline import spectral_chart_at, spectral_monodromy
from .synth import (
    NormalFormSymbol,
    SemiclassicalParams,
    SpectrumCloud,
    chi,
    chi_inverse,
    default_higher_coeffs,
    good_rectangle,
    spectral_band,
    synth_spectrum,
)

__version__ = "0.1.0"

# every name imported above from a module of the package
__all__ = [name for name, obj in globals().items() if getattr(obj, "__module__", "").startswith(f"{__name__}.")]
