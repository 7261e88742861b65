"""Persistent homology of finite generalized metric spaces and their sum-metric
products: Rips barcodes, barwise tensor/Tor predictions, and exact bottleneck
comparisons against the computed product."""

from .bars import (
    INF,
    Bar,
    Barcode,
    GradedBarcode,
    tensor_bar,
    tensor_barcodes,
    tor1_bar,
    tor1_barcodes,
)
from .complexes import (
    Cell,
    FilteredComplex,
    ordered_product,
    vietoris_rips,
)
from .errors import CapExceeded, InputError, SumripsError
from .kunneth import (
    ComparisonReport,
    DimensionComparison,
    bottleneck,
    compare_product,
    kunneth_predict,
)
from .metric import (
    FiniteMetricSpace,
    diameter,
    enclosing_radius,
    hamming_cube,
    product_sum,
    validate,
)
from .persistence import reduce

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Bar",
    "Barcode",
    "CapExceeded",
    "Cell",
    "ComparisonReport",
    "DimensionComparison",
    "FilteredComplex",
    "FiniteMetricSpace",
    "GradedBarcode",
    "InputError",
    "SumripsError",
    "bottleneck",
    "compare_product",
    "diameter",
    "enclosing_radius",
    "hamming_cube",
    "kunneth_predict",
    "ordered_product",
    "product_sum",
    "reduce",
    "tensor_bar",
    "tensor_barcodes",
    "tor1_bar",
    "tor1_barcodes",
    "validate",
    "vietoris_rips",
]
