"""Exact free Rota-Baxter and free Nijenhuis algebra constructions on the
tensor module over a free commutative base algebra, with executable checks
of the defining identities."""

from .base import MONO_UNIT, Monomial, gen
from .dendriform import (
    DendriformContext,
    dialgebra_defects,
    omega_prec,
    omega_succ,
    trialgebra_defects,
)
from .errors import (
    EmptyWordTermError,
    ExprSyntaxError,
    ReservedSymbolError,
    UnknownSuiteError,
    UnmappedGeneratorError,
)
from .operators import (
    NijenhuisTarget,
    VectorAlgebraElement,
    factorization_check,
    hochschild_coboundary,
    make_n_tau,
    nijenhuis_defect,
    phi_extend,
    phi_monomial,
    rb_universal_check,
    rota_baxter_defect,
    universal_property_check,
)
from .oracle import (
    LEFT,
    RIGHT,
    admissible_pairs,
    enumerate_shuffles,
    mixed_shuffle,
    mod_quasi_shuffle_oracle,
)
from .products import (
    aug_mod_quasi_shuffle,
    aug_quasi_shuffle,
    mod_quasi_shuffle,
    mu_product,
    nijenhuis_torsion,
    quasi_shuffle,
    shuffle,
)
from .tensor import (
    EMPTY_WORD,
    TensorElement,
    Word,
    b_minus,
    b_plus,
    grade_lengths,
    word_sort_key,
    word_str,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
