"""Sampling sets, oscillation estimates, and frames on R^n, the affine
group, and the first Heisenberg group."""

from .groups import (
    GroupModel,
    EuclideanModel,
    AffineModel,
    HeisenbergModel,
    model_from_id,
)
from .grids import Grid, GridFunction, interpolate
from .pointsets import (
    PointSet,
    Certificate,
    Partition,
    verify_separated,
    verify_dense,
    build_partition,
    quasilattice_semidirect,
    tiling_check,
)
from .analysis import (
    oscillation,
    oscillation_l1_box,
    osc_conv_check,
    vector_field_apply,
    sublaplacian_matrix,
    sublaplacian_spectrum,
    random_bandlimited,
    estimate_constants,
    ConstantEstimates,
    oscillation_scaling_check,
)

__version__ = "0.1.0"

from .kernels import (
    BasisKernel,
    SincKernel,
    SpectralProjector,
    admissibility_constant,
    mexican_hat,
    wavelet_transform,
    cosine_taper_bump,
    mollified_vector,
    WaveletSystem,
)
from .frames import (
    FrameSystem,
    FrameBounds,
    ReconstructionResult,
    quasi_interpolate,
    theorem35_verdict,
    lattice_sum_squares,
    heisenberg_sampling_experiment,
    hypothesis_scan,
    wavelet_frame_bounds,
    beurling_scan,
)
