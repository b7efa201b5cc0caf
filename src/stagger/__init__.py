"""Staggered sheaves on the equivariant affine line, exactly.

Finitely generated graded modules over k[x] stand in for equivariant
coherent sheaves; the package computes s-structures, Serre duality,
staggered truncation, heart kernels and cokernels, simple objects and
composition series, plus brute-force oracles and randomized suites that
certify each axiom.
"""

from .grmod import (
    F,
    GradedModule,
    MonoMatrix,
    Presentation,
    T,
    V,
    ZERO,
    canonical_decompose,
    direct_sum,
    fmt_module,
    gm,
    internal_hom,
    module_map,
    present,
    tensor,
)
from .sstruct import (
    SConfig,
    SITE_U,
    SITE_X,
    SigmaWitness,
    Site,
    axiom_suite,
    max_ge,
    member,
    min_le,
    sigma,
    site_z,
    step,
)
from .derived import (
    FormalObject,
    derived_hom,
    dualize,
    formal,
    li_star,
    push_z,
    r_gamma_z,
    restrict_u,
    ri_flat,
    std_truncate,
)
from .stag import (
    Perversity,
    aisle_member,
    aisle_member_level,
    aisle_member_z,
    dual_perversity,
    geometry_report,
    heart_kernel_cokernel,
    heart_morphism,
    ic,
    jh_factors,
    simples,
    stag_truncate,
    tstructure_suite,
    validate_perversity,
)
from .flag import flag_verify
from .oracle import agreement_suite
from .formats import ParseError, parse_formal, parse_module

__all__ = [name for name in dir() if not name.startswith("_")]
