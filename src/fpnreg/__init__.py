"""Fourier-analytic regularity toolkit for subsets of F_p^n."""

__version__ = "0.1.0"

from .errors import ContractError, InputError
from .vectorspace import (
    CosetSystem,
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    annihilator_within,
    coset_representatives,
    localize,
)
from .fourier import DenseFunction, Spectrum, convolve, dft, identity_suite, idft
from .regularity import (
    RegularityReport,
    TowerValue,
    VectorClassification,
    classify_vectors,
    energy,
    refine_step,
    regularize,
    regularize_multi,
    restricted_sup,
    tower,
)
from .cayley import (
    PetalGraph,
    RegularityCertificate,
    edge_count_direct,
    edge_count_fourier,
    pair_density_check,
    petal_graph,
    sigma_certificate,
    sparse_check,
)
from .threeap import (
    APTriple,
    Flower,
    build_petal_candidates,
    capset_max_exhaustive,
    count_3aps_fourier,
    count_3aps_naive,
    density_test,
    find_nontrivial_3ap,
    flower_find,
)
from .randmodel import (
    chernoff_bound,
    empirical_tail,
    fourier_sup_report,
    mc_density_failure,
    mc_klr11,
    sample_bernoulli,
    sample_coupled,
    sample_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
