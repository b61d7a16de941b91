"""Cluster-expansion identity checks and Mayer-series convergence-radius bounds.

The package has two halves that meet in the CLI:

* an exact/combinatorial half (`combinatorics`, `ursell`) that evaluates the
  Ursell coefficient of a finite pair-interaction matrix by several
  independent routes (connected-graph sum, partition Mobius sum, edge-labeled
  tree integral, block-merge expansion) and verifies that they agree;

* a numerical half (`potentials`, `stability`, `bounds`) that checks the
  Basuev stability criterion V(a) > 2*mu(a) for radially symmetric pair
  potentials and computes certified lower bounds on the convergence radius of
  the Mayer activity series (Penrose-Ruelle, Morais-Procacci-Scoppola, and
  the two Basuev bounds C*, C-hat), including the optimized Lennard-Jones
  numbers.
"""

from .combinatorics import SizeLimitError, enumerate_labeled_trees
from .ursell import (
    InteractionMatrix,
    merge_sequence_expansion,
    subset_energies,
    ursell_graph_sum,
    ursell_partition_sum,
    ursell_tree_integral,
)
from .potentials import (
    HardCoreWrap,
    InversePower,
    LennardJones,
    PairPotential,
    TabulatedPotential,
    potential_from_config,
    split,
)
from .stability import (
    MuBound,
    StabilityData,
    criterion_holds,
    find_max_a,
    lj_stability_registry,
    mu_upper_cube,
    mu_upper_yuhjtman,
)
from .bounds import (
    BoundPieces,
    BoundReport,
    bound_pieces,
    compare_report,
    h_factor,
    hard_core_bounds,
    penrose_ruelle,
)
from .quadrature import QuadratureSpec, radial_integral, stable_ratio

__all__ = [name for name in dir() if not name.startswith("_")]
