"""Exact-arithmetic controlled chain homotopies in Moore complexes of
simplicial classifying spaces, with diameter tables and bound constants.

The package namespace holds only ``__version__``; import names from the
submodules (``barhom.shuffles``, ``barhom.homotopy``, ...)."""

__version__ = "0.1.0"
