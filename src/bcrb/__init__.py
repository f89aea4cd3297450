"""Bayesian Cramer-Rao bounds on discretized parameter spaces.

Library layout:

- :mod:`bcrb.grids`      grids, fields, quadrature, differential operators
- :mod:`bcrb.geometry`   statistical models and reparametrization
- :mod:`bcrb.bounds`     the Gill-Levit bound family
- :mod:`bcrb.optimal`    the exact optimal bound via the field equation
- :mod:`bcrb.minimax`    wave picture, ground states, worst-case rates
- :mod:`bcrb.quantum`    Helstrom information and quantum bounds
- :mod:`bcrb.waveform`   spectral bounds for waveform estimation
- :mod:`bcrb.imaging`    subdiffraction imaging applications
- :mod:`bcrb.cli`        scenario-driven command line front end
"""

from .bounds import (
    BoundReport,
    VectoralWeight,
    functionals,
    gill_levit_bound,
    natural_v,
    van_trees_v,
    vectoral_bound,
)
from .geometry import (
    Diffeomorphism,
    InvarianceReport,
    StatisticalModel,
    invariance_report,
    pushforward_model,
    transform_vector_field,
)
from .grids import (
    MatrixField,
    ParameterGrid,
    ScalarField,
    VectorField,
    gradient,
    integrate,
)
from .imaging import (
    PSF_CATALOG,
    PointSpreadFunction,
    SourceConfiguration,
    direct_imaging_fisher,
    exponent_fit,
    imaging_helstrom,
    minimax_rate,
    quantum_vs_classical,
)
from .minimax import (
    SchrodingerProblem,
    Wavefunction,
    assemble_H,
    bworst,
    ground_state,
    lambda_scan,
    rate_fit,
    wave_functionals,
)
from .optimal import (
    OperatorL,
    assemble_L,
    bmax,
    gaussian_closed_form,
    solve_least_favorable,
    vectoral_bmax,
)
from .quantum import (
    DensityFamily,
    gaussian_shift_bounds,
    helstrom_matrix,
    qmax,
    sld_scores,
    snr_observable,
)
from .waveform import (
    SpectralModel,
    TimeDiscretization,
    build_circulant_bound,
    continuum_qmax,
    noise_floor_check,
    wiener_risk,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "VectoralWeight", "functionals", "gill_levit_bound",
    "natural_v", "van_trees_v", "vectoral_bound",
    "Diffeomorphism", "InvarianceReport", "StatisticalModel",
    "invariance_report", "pushforward_model", "transform_vector_field",
    "MatrixField", "ParameterGrid", "ScalarField", "VectorField",
    "gradient", "integrate",
    "PSF_CATALOG", "PointSpreadFunction", "SourceConfiguration",
    "direct_imaging_fisher", "exponent_fit", "imaging_helstrom",
    "minimax_rate", "quantum_vs_classical",
    "SchrodingerProblem", "Wavefunction", "assemble_H", "bworst",
    "ground_state", "lambda_scan", "rate_fit", "wave_functionals",
    "OperatorL", "assemble_L", "bmax", "gaussian_closed_form",
    "solve_least_favorable", "vectoral_bmax",
    "DensityFamily", "gaussian_shift_bounds",
    "helstrom_matrix", "qmax", "sld_scores", "snr_observable",
    "SpectralModel", "TimeDiscretization", "build_circulant_bound",
    "continuum_qmax", "noise_floor_check", "wiener_risk",
    "__version__",
]
