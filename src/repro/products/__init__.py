"""Simulated products under evaluation (stand-ins for the paper's four)."""

from .aafid import AafidProduct
from .base import Deployment, Product, ProductFacts
from .manhunt import ManhuntProduct
from .nid import NidProduct
from .realsecure import RealSecureProduct

__all__ = [
    "Product",
    "ProductFacts",
    "Deployment",
    "NidProduct",
    "RealSecureProduct",
    "ManhuntProduct",
    "AafidProduct",
]

