"""NumPy golden-model execution of layer specifications.

The functional cycle simulators (``repro.sim``) must produce numerically
identical results to a trusted reference.  This module is that reference:
a direct, loop-free NumPy implementation of the paper's CONV operation
(Figure 3's nested loop), plus pooling and fully-connected layers.

Conventions match the paper: feature maps are 2-D, a layer input is an
``(N, S_in, S_in)`` array, kernels are ``(M, N, K, K)``, and the CONV
output neuron is

    O[m, r, c] = sum_n sum_i sum_j  K[m, n, i, j] * I[n, r*stride + i, c*stride + j]

(no padding; padded layers are executed on pre-padded inputs produced by
:func:`pad_input`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer, FCLayer, PoolLayer


def conv2d(
    inputs: np.ndarray, kernels: np.ndarray, stride: int = 1
) -> np.ndarray:
    """Valid 2-D multi-channel convolution (the paper's CONV operation).

    Args:
        inputs: ``(N, H, W)`` input feature maps.
        kernels: ``(M, N, K, K)`` kernel tensor.
        stride: spatial stride (1 in all Table 1 layers except AlexNet C1).

    Returns:
        ``(M, S, S)`` output feature maps with ``S = (H - K) // stride + 1``.
    """
    if inputs.ndim != 3:
        raise SpecificationError(f"inputs must be (N,H,W), got shape {inputs.shape}")
    if kernels.ndim != 4:
        raise SpecificationError(
            f"kernels must be (M,N,K,K), got shape {kernels.shape}"
        )
    n_in, height, width = inputs.shape
    m_out, n_k, k_h, k_w = kernels.shape
    if n_k != n_in:
        raise SpecificationError(
            f"kernel expects {n_k} input maps, inputs provide {n_in}"
        )
    if k_h != k_w:
        raise SpecificationError(f"kernels must be square, got {k_h}x{k_w}")
    if height < k_h or width < k_w:
        raise SpecificationError(
            f"input {height}x{width} smaller than kernel {k_h}x{k_w}"
        )
    out_h = (height - k_h) // stride + 1
    out_w = (width - k_w) // stride + 1

    # Extract all convolution windows with stride, then contract with the
    # kernel tensor: windows is (N, out_h, out_w, K, K).
    windows = np.lib.stride_tricks.sliding_window_view(inputs, (k_h, k_w), axis=(1, 2))
    windows = windows[:, ::stride, ::stride, :, :]
    # O[m, r, c] = sum_{n,i,j} K[m,n,i,j] * W[n,r,c,i,j]
    out = np.einsum("mnij,nrcij->mrc", kernels, windows)
    return out


def pad_input(inputs: np.ndarray, pad_total: int) -> np.ndarray:
    """Zero-pad feature maps by ``pad_total`` pixels split across each side.

    The layer specs express padding as a *total* per dimension (see
    :attr:`ConvLayer.padding`); odd totals put the extra pixel at the
    trailing edge, matching the usual convention.
    """
    if pad_total < 0:
        raise SpecificationError(f"negative padding {pad_total}")
    if pad_total == 0:
        return inputs
    lead = pad_total // 2
    trail = pad_total - lead
    return np.pad(inputs, ((0, 0), (lead, trail), (lead, trail)))


def run_conv_layer(layer: ConvLayer, inputs: np.ndarray) -> np.ndarray:
    """Execute a CONV layer spec on real data (random-weight free variant).

    ``inputs`` must match ``layer.input_shape``.  Kernels are generated
    deterministically from the layer spec via :func:`make_kernels` so two
    calls agree; use :func:`conv2d` directly to supply custom kernels.
    """
    if tuple(inputs.shape) != layer.input_shape:
        raise SpecificationError(
            f"{layer.name}: inputs shape {inputs.shape} != expected"
            f" {layer.input_shape}"
        )
    kernels = make_kernels(layer)
    padded = pad_input(inputs, layer.padding)
    return conv2d(padded, kernels, stride=layer.stride)


def pool2d(
    inputs: np.ndarray, window: int, out_size: int, mode: str = "max"
) -> np.ndarray:
    """Pool ``(C, H, W)`` maps down to ``(C, out_size, out_size)``.

    The stride is derived from the in/out sizes like
    :attr:`PoolLayer.stride`, which covers non-overlapping, truncating, and
    overlapped (AlexNet 3x3/stride-2) pooling with one rule.
    """
    if mode not in ("max", "avg"):
        raise SpecificationError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    channels, height, _width = inputs.shape
    if out_size == 1:
        stride = height
    else:
        stride = max(1, (height - window) // (out_size - 1))
    out = np.empty((channels, out_size, out_size), dtype=inputs.dtype)
    reducer = np.max if mode == "max" else np.mean
    for r in range(out_size):
        for c in range(out_size):
            r0, c0 = r * stride, c * stride
            patch = inputs[:, r0:r0 + window, c0:c0 + window]
            out[:, r, c] = reducer(patch, axis=(1, 2))
    return out


def run_pool_layer(layer: PoolLayer, inputs: np.ndarray) -> np.ndarray:
    """Execute a POOL layer spec on real data."""
    if tuple(inputs.shape) != layer.input_shape:
        raise SpecificationError(
            f"{layer.name}: inputs shape {inputs.shape} != expected"
            f" {layer.input_shape}"
        )
    return pool2d(inputs, layer.window, layer.out_size, layer.mode)


def run_fc_layer(layer: FCLayer, inputs: np.ndarray) -> np.ndarray:
    """Execute an FC layer spec: ``out = W @ in`` with deterministic weights."""
    flat = inputs.reshape(-1)
    if flat.shape[0] != layer.in_neurons:
        raise SpecificationError(
            f"{layer.name}: {flat.shape[0]} inputs != expected {layer.in_neurons}"
        )
    weights = make_fc_weights(layer)
    return weights @ flat


# -- deterministic data generation ------------------------------------------

#: SplitMix64's increment and output mixers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))


def hash_stable(text: str) -> int:
    """A process-stable 64-bit hash of all of ``text`` (FNV-1a; the
    builtin ``hash`` is salted per process)."""
    value = 1469598103934665603
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) % (2**64)
    return value


def synthetic_values(tag: str, shape) -> np.ndarray:
    """Deterministic ``float64`` values in ``[-1, 1)`` named by ``tag``.

    Element ``i`` is SplitMix64's output for counter ``i + 1`` from the
    seed ``hash_stable(tag)``, scaled from its top 53 bits, so every
    value is a multiple of ``2**-52`` and (but for odds of ``2**-51``)
    not an integer.  A counter-based hash needs no generator state and
    no random-number module.
    """
    z = np.arange(1, int(np.prod(shape)) + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(hash_stable(tag))
    for shift, factor in _MIX:
        z ^= z >> np.uint64(shift)
        z *= factor
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    values = z.astype(np.float64)
    values *= 2.0**-52
    values -= 1.0
    return values.reshape(shape)


def make_inputs(layer: ConvLayer, *, seed_tag: Optional[str] = None) -> np.ndarray:
    """Deterministic synthetic input feature maps for a CONV layer."""
    return synthetic_values(
        seed_tag or f"in:{layer.name}:{layer.input_shape}", layer.input_shape
    )


def make_kernels(layer: ConvLayer, *, seed_tag: Optional[str] = None) -> np.ndarray:
    """Deterministic synthetic kernels for a CONV layer."""
    return synthetic_values(
        seed_tag or f"k:{layer.name}:{layer.kernel_shape}", layer.kernel_shape
    )


def make_fc_weights(layer: FCLayer, *, seed_tag: Optional[str] = None) -> np.ndarray:
    """Deterministic synthetic weight matrix for an FC layer."""
    return synthetic_values(
        seed_tag or f"w:{layer.name}", (layer.out_neurons, layer.in_neurons)
    )
