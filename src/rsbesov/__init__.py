"""Wavelet-based Besov analysis of regularity structures on periodic dyadic
grids: multiresolution transforms, Besov norms, modelled-distribution spaces,
the reconstruction operator and its inverse lift, embedding checks, and
Schauder-type convolution with self-similar singular kernels."""

__version__ = "0.1.0"

from .scaling import Scaling, wrap_displacement  # noqa: F401
from .pyramid import CoeffPyramid, load_rsbf, save_rsbf  # noqa: F401
from .mra import (  # noqa: F401
    WaveletFamily,
    build_wavelet,
    eval_basis,
    forward_transform,
    inverse_transform,
    point_values,
    project,
)
from .besov import (  # noqa: F401
    BesovParams,
    TestDictionary,
    besov_norm_testfn,
    besov_norm_wavelet,
    critical_exponent,
    lpn_norm,
    make_dictionary,
    mollify,
    synthesize,
)
from .structures import (  # noqa: F401
    Model,
    ModelNorms,
    NoiseModel,
    PolynomialModel,
    RegularityStructure,
    Symbol,
    model_norms,
    noise_structure,
    polynomial_structure,
    validate_model,
)
from .modelled import (  # noqa: F401
    AveragedMD,
    DNormReport,
    ModelledDistribution,
    average,
    check_local_propagation,
    d_norm,
    dbar_norm,
    md_distance,
    unaverage,
)
from .reconstruction import (  # noqa: F401
    CertificateError,
    GermCoefficients,
    derivative_check,
    germ_from_pyramid,
    lift,
    reconstruct,
    reconstruction_bound,
    sewing_limit,
    two_model_compare,
    uniqueness_probe,
)
from .embeddings import EmbeddingCase, ell_embed, embed_check, embed_sweep  # noqa: F401
from .schauder import (  # noqa: F401
    KernelDecomposition,
    convolution_identity_check,
    decompose_kernel,
    extend_structure,
    schauder_apply,
)
