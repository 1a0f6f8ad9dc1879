"""Differentially private synthetic data close to a private low-dimensional
affine subspace, with exact Wasserstein evaluation tools.

The pipeline privatizes the centered covariance, projects the data onto the
noisy principal subspace, builds a private synthetic measure on the
projected coordinates (hierarchical noisy counts for small d', a noisy
lattice with an LP projection otherwise), shifts back by the saved private
mean and clamps into the unit cube.
"""

from .errors import (
    IngestError,
    InsufficientDataError,
    InvalidBudgetError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidRegimeError,
    LatticeTooLargeError,
    LowdpError,
    OutOfDomainError,
    SizeOverflowError,
    SolverError,
)
from .metrics import (
    ProjectionReport,
    TransportResult,
    projection_diagnostics,
    wasserstein1,
    wasserstein1_sampled,
    wasserstein2,
)
from .noise import (
    SeededGenerator,
    laplace_inverse_cdf,
    sample_integer_laplace,
    sample_laplace,
    sample_symmetric_laplace_matrix,
)
from .pca import (
    Dataset,
    PrivateCovariance,
    ProjectedDataset,
    centered_covariance,
    noisy_projection,
    private_covariance,
    select_dimension,
    top_eigenvectors,
)
from .pipeline import PipelineConfig, SyntheticDataset, generate
from .planted import planted_subspace_dataset

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "IngestError",
    "InsufficientDataError",
    "InvalidBudgetError",
    "InvalidDimensionError",
    "InvalidParameterError",
    "InvalidRegimeError",
    "LatticeTooLargeError",
    "LowdpError",
    "OutOfDomainError",
    "PipelineConfig",
    "PrivateCovariance",
    "ProjectedDataset",
    "ProjectionReport",
    "SeededGenerator",
    "SizeOverflowError",
    "SolverError",
    "SyntheticDataset",
    "TransportResult",
    "centered_covariance",
    "generate",
    "laplace_inverse_cdf",
    "noisy_projection",
    "planted_subspace_dataset",
    "private_covariance",
    "projection_diagnostics",
    "sample_integer_laplace",
    "sample_laplace",
    "sample_symmetric_laplace_matrix",
    "select_dimension",
    "top_eigenvectors",
    "wasserstein1",
    "wasserstein1_sampled",
    "wasserstein2",
]
