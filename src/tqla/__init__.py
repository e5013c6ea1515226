"""Ternary-quantized linear layers: QAT, trapping diagnostics, and packing."""

from .quantizer import (
    Granularity,
    QuantizedTensor,
    absmean_params,
    twn_params,
    ternarize,
    quantize,
    dequantize,
    deadzone_mask,
    tequila_bias,
)

__version__ = "0.1.0"

__all__ = [
    "Granularity",
    "QuantizedTensor",
    "absmean_params",
    "twn_params",
    "ternarize",
    "quantize",
    "dequantize",
    "deadzone_mask",
    "tequila_bias",
    "__version__",
]
