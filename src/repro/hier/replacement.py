"""Independent-random-variable replacement (Section V, eq. 19).

The timing model of a module expresses its edge delays in terms of the
module's own independent variables ``x`` (the PCA components of its grid
variables ``pl = A x``).  At design level the same physical grid variables
are a subset ``p^t_{l,n}`` of the design grid vector ``p^t_l = B x^t``.
Because both share the covariance matrix ``C``, the module variables can be
rewritten in the design basis:

    x = A^{-1} p_l = A^{-1} B_n x^t

where ``B_n`` holds the rows of ``B`` corresponding to the module's grids.
Applying this substitution to every edge delay of every instantiated model
makes all instances share the design-level independent set ``x^t``, which
restores the spatial correlation *between* modules.

This module derives the design-level PCA and the per-instance matrix
``A^{-1} B_n``; :mod:`repro.hier.analysis` applies it, edge by edge, while
it adds each instance's model edges to the design graph.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HierarchyError
from repro.hier.design import ModuleInstance
from repro.hier.grids import DesignGrids
from repro.variation.pca import PCADecomposition, decompose_covariance
from repro.variation.spatial import SpatialCorrelation

__all__ = [
    "design_pca",
    "replacement_matrix",
    "subblock_consistency_error",
]


def design_pca(
    grids: DesignGrids, correlation: SpatialCorrelation
) -> PCADecomposition:
    """PCA decomposition of the design-level grid correlation matrix.

    Distances between design grids are measured centre-to-centre and
    normalized by the default grid size, exactly as during module
    characterization, so the sub-block covering one module equals the
    module's own correlation matrix.
    """
    distances = grids.partition.distance_matrix()
    matrix = correlation.local_matrix_from_distances(distances)
    return decompose_covariance(matrix)


def subblock_consistency_error(
    instance: ModuleInstance,
    grids: DesignGrids,
    correlation: SpatialCorrelation,
) -> float:
    """Maximum absolute difference between the design covariance sub-block
    covering ``instance`` and the module's own correlation matrix.

    Equation (18) of the paper relies on these two matrices being equal; a
    large value indicates an inconsistent grid size or correlation profile.
    """
    indices = grids.indices_for(instance.name)
    distances = grids.partition.distance_matrix()[np.ix_(indices, indices)]
    design_block = correlation.local_matrix_from_distances(distances)
    module_block = instance.model.variation.local_correlation_matrix
    if design_block.shape != module_block.shape:
        raise HierarchyError(
            "instance %r covers %d design grids but was characterized with %d"
            % (instance.name, design_block.shape[0], module_block.shape[0])
        )
    return float(np.max(np.abs(design_block - module_block)))


def replacement_matrix(
    instance: ModuleInstance,
    grids: DesignGrids,
    pca: PCADecomposition,
) -> np.ndarray:
    """The matrix mapping module-local variables onto design variables.

    Returns ``R`` with shape ``(k_module, k_design)`` such that
    ``x_module = R @ x_design`` (eq. 19: ``R = A^{-1} B_n``).  A module edge
    with local coefficient row vector ``a`` becomes ``a @ R`` in the design
    basis.
    """
    indices = grids.indices_for(instance.name)
    module_pca = instance.model.pca
    if len(indices) != module_pca.num_variables:
        raise HierarchyError(
            "instance %r maps %d design grids onto %d module grids"
            % (instance.name, len(indices), module_pca.num_variables)
        )
    b_n = pca.transform[indices, :]
    return module_pca.inverse_transform @ b_n
