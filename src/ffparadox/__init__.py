"""Friends-of-friends degree analytics for truncated power-law networks.

The friendship paradox: the mean degree of a vertex's neighbors exceeds the
mean degree whenever degrees vary, with gap exactly variance/mean.  This
package provides the closed-form gap predictions for truncated power-law
degree distributions, sampling and graph realization under three generator
models, empirical measurement, and scaling-parameter fitting.
"""

from .errors import (
    AllIsolatedError,
    DegenerateSupportError,
    DivergentError,
    DomainError,
    ImpossibleSequenceError,
    NonMonotoneError,
    NoMaximumError,
    OutOfRangeError,
    TooFewPointsError,
    TooManyPairsError,
)
from .fit import FitResult, Moment, alpha_from_moment, fit_alpha
from .metrics import (
    ParadoxStats,
    betweenness,
    central_point_dominance,
    components,
    ff_total_adjacency,
    global_efficiency,
    kff_from_histogram,
    stats_from_degrees,
)
from .netgen import (
    DropReport,
    Graph,
    Model,
    drop_report,
    generate,
    make_graphical,
    read_edge_list,
    write_edge_list,
)
from .powerlaw import (
    INFINITE,
    Branch,
    PowerLawSpec,
    PredictionResult,
    cdf,
    normalization_constant,
    pdf,
    predict,
    sample_continuous,
    sample_degrees,
)

__version__ = "0.1.0"

__all__ = [
    "AllIsolatedError",
    "Branch",
    "DegenerateSupportError",
    "DivergentError",
    "DomainError",
    "DropReport",
    "FitResult",
    "Graph",
    "ImpossibleSequenceError",
    "INFINITE",
    "Model",
    "Moment",
    "NonMonotoneError",
    "NoMaximumError",
    "OutOfRangeError",
    "ParadoxStats",
    "PowerLawSpec",
    "PredictionResult",
    "TooFewPointsError",
    "TooManyPairsError",
    "alpha_from_moment",
    "betweenness",
    "cdf",
    "central_point_dominance",
    "components",
    "drop_report",
    "ff_total_adjacency",
    "fit_alpha",
    "generate",
    "global_efficiency",
    "kff_from_histogram",
    "make_graphical",
    "normalization_constant",
    "pdf",
    "predict",
    "read_edge_list",
    "sample_continuous",
    "sample_degrees",
    "stats_from_degrees",
    "write_edge_list",
]
