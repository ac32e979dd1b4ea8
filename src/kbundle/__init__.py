"""Exact computer algebra for kernel and syzygy bundles on projective space:
semistability decisions, Tannaka dual-group fingerprints, restriction-degree
bounds and tight/solid closure thresholds."""

__version__ = "0.1.0"

from .algebra import FieldSpec, PolyRing, Poly, make_ring, parse_polynomial  # noqa: F401
from .bundle import KernelBundle, from_syzygy  # noqa: F401
