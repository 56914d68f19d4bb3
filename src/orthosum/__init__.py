"""Exact combinatorics and even-p operator norms for multi-indexed p-orthogonal sums.

The package splits into six layers:

* :mod:`orthosum.partitions` - the refinement lattice of set partitions with
  its exact Mobius function;
* :mod:`orthosum.freegroup` - reduced words in free groups and certification
  of p-dissociate word families;
* :mod:`orthosum.algebra` - tracial matrices, family flattenings, and a formal
  group-algebra engine computing even-p norms by word cancellation;
* :mod:`orthosum.orthogonality` - alternating trace moments of indexed
  families and their Mobius decomposition;
* :mod:`orthosum.factorization` - the constructive factorization of dominated
  moment sums into a product of p group-algebra factors;
* :mod:`orthosum.lab` - generated example families and numeric checks of the
  norm inequalities, wired into the ``orthosum`` CLI.
"""

from .algebra import (
    GROUP_ALGEBRA,
    MATRIX,
    Flattening,
    GroupAlgebraElement,
    OperatorFamily,
    SplitPair,
    all_splits,
    family_scale,
    family_sum_norm,
    flatten,
    ga_adjoint,
    ga_even_norm,
    ga_multiply,
    ga_trace,
    generator_sum,
    ntrace,
    schatten_even_norm,
    vv_norm,
)
from .errors import (
    DEFAULT_BUDGET,
    ConstructionError,
    KindError,
    NotPOrthogonalError,
    SizeLimitError,
)
from .factorization import (
    build_factors,
    factor_norm_report,
    factorization_check,
    xi_family,
)
from .freegroup import (
    DissociateReport,
    Word,
    WordFamily,
    WordTuple,
    canonical_dissociate,
    format_word,
    inverse,
    is_p_dissociate,
    parse_word,
    word_multiply,
)
from .lab import (
    FamilySpec,
    Quantities,
    absorption_check,
    compute_quantities,
    dissociate_equivalence_report,
    khintchine_iteration_check,
    main_inequality_report,
    make_family,
    phi_r_bound_check,
    sublemma_root_check,
)
from .orthogonality import (
    MomentReport,
    alternating_moment,
    has_injective_projection,
    is_p_orthogonal,
    mobius_decomposition_check,
    phi,
    psi,
    sigma_of,
)
from .partitions import (
    SetPartition,
    all_partitions,
    format_partition,
    kernel_partition,
    mobius,
    mobius_recursive,
    parse_partition,
    refines,
    verify_mobius_identities,
)

__version__ = "0.1.0"
