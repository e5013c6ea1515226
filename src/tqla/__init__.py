"""Ternary-quantized linear layers: QAT, trapping diagnostics, and packing."""

from .quantizer import (
    Granularity,
    QuantizedTensor,
    quantize,
    dequantize,
    deadzone_mask,
    tequila_bias,
)

__version__ = "0.1.0"

__all__ = [
    "Granularity",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "deadzone_mask",
    "tequila_bias",
    "__version__",
]
