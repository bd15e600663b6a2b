"""Exact rational polyhedral complexes, Voronoi/Delaunay certification,
parasitic projective intersections with a blow-up schedule, and simplicial
topology (homology, fundamental groups, superperfect certificates)."""

from .rationals import QQ, rat, rat_str
from .polyhedra import (
    LinearInequality,
    RationalPolyhedron,
    AffineSubspace,
    convex_hull_inequalities,
    polytope_volume,
    format_poly,
    parse_poly,
)
from .complexes import PolyhedralComplex, VerificationFailure, format_cplx, parse_cplx
from .simplicial import SimplicialComplex, format_scx, parse_scx
from .voronoi import (
    SiteSet,
    DelaunayRealization,
    PolyhedralRegion,
    voronoi_complex,
    is_simple_configuration,
    perturb_to_simple,
    delaunay,
    clipped_complex,
    dense_lattice_sites,
    format_pts,
    parse_pts,
    format_rgn,
    parse_rgn,
)
from .projective import (
    ProjectiveSubspace,
    ParasiticRecord,
    BlowUpLedger,
    span_assignment,
    parasitic_intersections,
    saturate,
    verify_proper,
    blowup_plan,
    format_ledger,
    parse_ledger,
)
from .nolimit import no_limit_witness
from .homology import SmithForm, smith_normal_form, ChainComplex, HomologyProfile, homology
from .groups import (
    GroupPresentation,
    abelianization,
    is_perfect,
    higman_presentation,
    presentation_complex,
    presentation_complex_stats,
    q_superperfect_certificate,
    fundamental_group,
    simplify_presentation,
    format_grp,
    parse_grp,
)
from .moves import (
    DualComplexMove,
    dual_move,
    dual_complex,
    stellar_subdivide,
    barycentric_move,
    cone_over_star,
)

__version__ = "1.0.0"
