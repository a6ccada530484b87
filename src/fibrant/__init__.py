"""Exact computer algebra for Weierstrass elliptic fibrations over the plane."""

__version__ = "0.1.0"

from .poly import MultiPoly, Rational, format_poly
from .weierstrass import (
    KodairaType,
    OrderTriple,
    WeierstrassFibration,
    collide,
    kodaira_classify,
)
from .miranda import analyze_lagrange_family

__all__ = [
    "MultiPoly",
    "Rational",
    "format_poly",
    "KodairaType",
    "OrderTriple",
    "WeierstrassFibration",
    "kodaira_classify",
    "analyze_lagrange_family",
    "collide",
    "__version__",
]
