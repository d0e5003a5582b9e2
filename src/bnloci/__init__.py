"""bnloci: exact Brill-Noether calculations and non-emptiness certificates
for twisted loci on smooth curves, with table sweeps and slope-plane data.

Everything is exact integer and rational arithmetic; there is no floating
point anywhere in the engine.
"""

from .exactnum import (
    ALWAYS_NEGATIVE,
    ceil_ratio,
    floor_ratio,
    make_rational,
    quad_neg_threshold,
)
from .bncalc import (
    BundleSpec,
    LocusSpec,
    SlopePoint,
    asympt_neg,
    beta_classical,
    beta_twisted,
    beta_universal,
    chi_tensor,
    dim_excess_criterion,
    leading_coeff_t4,
    line_bn_degree_bound,
    neg_slope_criterion,
    t4_beta_poly,
    universal_neg_criterion,
)
from .spanops import (
    CoherentSystemType,
    dual_span_type,
    elem_transform_type,
    r_fold_type,
)
from .certkit import (
    BUILTIN_FACTS,
    Certificate,
    CurveClass,
    Fact,
    FactDatabase,
    GenusConstraint,
    bn_line_nonempty,
    bn_np1_nonempty,
    certify_c8,
    certify_elem,
    certify_phi,
    certify_rfold,
    certify_t4,
    certify_t9,
    certify_t10,
    cor_t3_d1_range,
    revalidate,
    s_nonempty,
)
from .sweeps import (
    RegionBoundary,
    bnmap_point,
    classify_point,
    dmax_formula_bpn,
    dmax_search,
    dmin_formula,
    ex2_min_genus,
    ex40_d1_range,
    table2_min_genus,
)

__version__ = "0.1.0"
