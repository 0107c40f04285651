"""Exact-arithmetic controlled chain homotopies in Moore complexes of
simplicial classifying spaces, with diameter tables and bound constants."""

from .groups import CyclicGroup, DirectProduct, FreeGroup, Group, SymmetricGroup
from .moore import (
    Chain,
    boundary,
    count_degenerate,
    degeneracy,
    diameter,
    face,
    is_degenerate,
    project,
)
from .quintuple import NonNormalizable, Quintuple, QuintupleAlgebra, VerificationInstance, instance_eval
from .shuffles import (
    Shuffle,
    add_shuffle_product,
    aw,
    ed_terms,
    edgewise,
    edgewise_composite,
    ez,
    mult_map,
    shuffle_table,
    shuffle_term,
    shuffles,
)
from .cylinder import CylinderTerm, IncompatiblePillars, boundary_system, cyl, cyl_chain, face_pillar
from .homotopy import (
    DimensionExceeded,
    HomotopyContext,
    MitosisTower,
    formal_context,
    homotopy_P,
    induct_Q,
    instance_context,
    pillar_of_term,
    verify_identity,
)
from .words import MitosisWord, TowerAlgebra, mitosis_reduce
from . import bounds

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
