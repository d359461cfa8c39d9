"""Numerical realization and verification of a desingularization of
transversely intersecting n-planes in C^n by minimal model necks.

The package checks the admissibility hypotheses of a plane configuration,
solves the interaction system Gamma alpha = Lambda for the neck scales,
builds the model-neck and Green-graph pieces, matches them at leading order
through sphere Dirichlet-to-Neumann operators, and certifies the output
with mean-curvature, Jacobi-field and indicial-root checks.
"""

__version__ = "0.1.0"

import os as _os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def _configure_threads() -> None:
    """Cap the BLAS/OpenMP pools at NECKGLUE_THREADS; runs before numpy loads."""
    count = _os.environ.get("NECKGLUE_THREADS")
    if not count:
        return
    for var in BLAS_THREAD_VARS:
        _os.environ.setdefault(var, count)


_configure_threads()
