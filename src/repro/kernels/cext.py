"""The generated-C kernel backend: build, cache, and bind with ctypes.

The C source lives in :mod:`repro.kernels.csrc` as one translation unit.
:func:`load` writes it next to the kernels cache directory
(``cache_root()/kernels``), compiles it with the system C compiler
(``$CC`` or ``cc``/``gcc``, :data:`CFLAGS`) and memoizes the shared
object by the SHA-256 of the source + compiler command + ABI tag,
so editing a kernel or switching compilers rebuilds while repeated runs
(and concurrent processes — the build publishes through a unique temp
file and ``os.replace``) share one ``.so``.

Every binding coerces its index inputs to contiguous ``int64`` arrays
(the functional simulators' data stays ``float64``) and returns plain
numpy arrays/ints, mirroring the NumPy expressions the kernels replace —
parity is pinned by ``tests/kernels/test_parity.py``.  The baseline
simulator kernels run the machines' checks too; a failed check raises
the :class:`~repro.errors.SimulationError` the NumPy machine raises.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MappingError, ReproError, SimulationError
from repro.kernels.csrc import KERNELS_C_ABI, KERNELS_C_SOURCE

Triple = Tuple[int, int, int]

#: Compile flags.  ``-ffp-contract=off`` keeps every ``a += b * c`` a
#: rounded multiply then a rounded add, as NumPy computes it, on targets
#: whose baseline has fused multiply-add.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: The counters ``repro_flexflow_group`` returns, in its output order.
FLEXFLOW_GROUP_COUNTERS = (
    "cycles",
    "neuron_buffer_reads",
    "kernel_buffer_reads",
    "bus_transfers",
    "local_store_writes",
    "mac_ops",
    "local_store_reads",
    "register_accesses",
    "neuron_buffer_writes",
)

#: The per-pair event counts ``repro_systolic_layer`` returns, in order.
SYSTOLIC_LAYER_COUNTERS = (
    "cycles",
    "neuron_buffer_reads",
    "bus_transfers",
    "fifo_accesses",
    "neuron_buffer_writes",
    "mac_ops",
    "register_accesses",
)

#: The counters ``repro_mapping2d_layer`` returns, in its output order.
MAPPING2D_LAYER_COUNTERS = (
    "cycles",
    "kernel_buffer_reads",
    "bus_transfers",
    "neuron_buffer_reads",
    "fifo_accesses",
    "mac_ops",
    "register_accesses",
    "neuron_buffer_writes",
)

#: The counters ``repro_tiling_layer`` returns, in its output order.
TILING_LAYER_COUNTERS = (
    "cycles",
    "neuron_buffer_reads",
    "bus_transfers",
    "kernel_buffer_reads",
    "mac_ops",
    "register_accesses",
    "neuron_buffer_writes",
    "neuron_buffer_partial_reads",
)


class KernelBuildError(ReproError):
    """The C backend could not be compiled or loaded on this machine."""


def _compiler() -> Optional[str]:
    """The C compiler to use, or ``None`` when the machine has none."""
    configured = os.environ.get("CC")
    if configured:
        return configured if shutil.which(configured) else None
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return name
    return None


def build_digest(compiler: str) -> str:
    """Content hash naming the built artifact (source + command + ABI)."""
    payload = "\x00".join(
        (KERNELS_C_SOURCE, compiler, *CFLAGS, f"abi={KERNELS_C_ABI}")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def default_build_dir() -> Path:
    """Where built shared objects live (inside the persistent cache root)."""
    from repro.cache import cache_root

    return cache_root() / "kernels"


def build_library(build_dir: Optional[Path] = None) -> Tuple[Path, bool]:
    """Compile (or reuse) the shared object; ``(path, freshly_built)``.

    Concurrent builders race benignly: each compiles into its own temp
    file and publishes with ``os.replace``, so the digest-named ``.so``
    is always complete.
    """
    compiler = _compiler()
    if compiler is None:
        raise KernelBuildError(
            "no C compiler found (set $CC or install cc/gcc/clang)"
        )
    directory = Path(build_dir) if build_dir else default_build_dir()
    digest = build_digest(compiler)
    so_path = directory / f"repro-kernels-{digest}.so"
    if so_path.is_file():
        return so_path, False
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(
            prefix="repro-kernels-build-", dir=str(directory)
        ) as tmp:
            src = Path(tmp) / "kernels.c"
            obj = Path(tmp) / "kernels.so"
            src.write_text(KERNELS_C_SOURCE)
            proc = subprocess.run(
                [compiler, *CFLAGS, "-o", str(obj), str(src)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise KernelBuildError(
                    f"{compiler} failed to build the kernel extension:"
                    f" {proc.stderr.strip() or proc.stdout.strip()}"
                )
            os.replace(obj, so_path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelBuildError(
            f"cannot build the kernel extension under {directory}: {exc}"
        ) from exc
    return so_path, True


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare every exported function's signature.

    Array arguments are untyped pointers, passed as ``arr.ctypes.data``
    (the address; half the cost of ``data_as``).  The methods below check
    each array's dtype, contiguity and shape before a call, since ctypes
    checks nothing here.
    """
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    signatures = {
        "repro_enumerate_triples": (
            i64, [ptr, i64, ptr, i64, ptr, i64, i64, ptr],
        ),
        "repro_pair_cycles": (
            None, [ptr, ptr, i64, ptr, ptr, i64, ptr, ptr, ptr],
        ),
        "repro_map_network": (
            i64, [ptr, ptr, i64, i64, i64, ptr, ptr, ptr, ptr],
        ),
        "repro_flexflow_store_sums": (None, [i64] + [ptr] * 12),
        "repro_surviving_structures": (i64, [ptr, i64, i64, i64]),
        "repro_store_replay": (
            i64, [ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr],
        ),
        "repro_flexflow_group": (i64, [ptr] * 14),
        "repro_systolic_layer": (i64, [ptr] * 6),
        "repro_mapping2d_layer": (i64, [ptr] * 7),
        "repro_tiling_layer": (i64, [ptr] * 5),
    }
    for name, (restype, argtypes) in signatures.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def _i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.int64)


#: The C store index keeps 32-bit coordinates.
_COORD_LIMIT = 2**32


def _check_rings(stores) -> None:
    """A :class:`~repro.kernels.replay.StoreRings` whose arrays the C
    loop may index: contiguous ``int64``, each ring where its offset
    says, every capacity at least 1."""
    arrays = (stores.ring, stores.offset, stores.counts, stores.capacity)
    for arr in arrays:
        if arr.dtype != np.int64 or not arr.flags.c_contiguous:
            raise ValueError("store rings must be contiguous int64 arrays")
    capacity = stores.capacity
    if (
        capacity.min(initial=1) < 1
        or stores.offset.shape != capacity.shape
        or stores.counts.shape != capacity.shape
        or not np.array_equal(stores.offset, np.cumsum(capacity) - capacity)
        or stores.ring.size != capacity.sum()
    ):
        raise ValueError("store rings do not match their capacities")


def _layer_operands(
    images: np.ndarray, kernels: np.ndarray, reach: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Contiguous ``float64`` square ``(N, P, P)`` images and
    ``(M, N, K, K)`` kernels whose outputs' windows, ``reach`` rows and
    columns from the origin, lie inside every image."""
    for name, arr in (("images", images), ("kernels", kernels)):
        if arr.dtype != np.float64:
            raise ValueError(f"{name} must be a float64 array")
    images = np.ascontiguousarray(images)
    kernels = np.ascontiguousarray(kernels)
    if (
        images.ndim != 3
        or kernels.ndim != 4
        or kernels.shape[1] != images.shape[0]
        or kernels.shape[2] != kernels.shape[3]
        or images.shape[1] != images.shape[2]
        or reach > images.shape[1]
    ):
        raise ValueError("mismatched layer operand shapes")
    return images, kernels


class CExtKernels:
    """ctypes bindings over the built shared object."""

    backend = "cext"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib

    # -- mapper ---------------------------------------------------------------

    def enumerate_triples(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray, limit: int
    ) -> np.ndarray:
        """Lexicographic triples of ``a x b x c`` with product <= limit."""
        a, b, c = _i64(a), _i64(b), _i64(c)
        capacity = len(a) * len(b) * len(c)
        if capacity == 0:
            return np.empty((0, 3), dtype=np.int64)
        out = np.empty((capacity, 3), dtype=np.int64)
        kept = self._lib.repro_enumerate_triples(
            a.ctypes.data, len(a), b.ctypes.data, len(b),
            c.ctypes.data, len(c), ctypes.c_int64(limit), out.ctypes.data,
        )
        return out[: int(kept)]

    def pair_cycles(
        self,
        dims_in: Triple,
        ins: np.ndarray,
        dims_out: Triple,
        outs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(fin, fout, fin x fout)`` step counts for every candidate pair."""
        ins = _i64(ins)
        outs = _i64(outs)
        n, m = len(ins), len(outs)
        fin = np.empty(n, dtype=np.int64)
        fout = np.empty(m, dtype=np.int64)
        cycles = np.empty((n, m), dtype=np.int64)
        din = _i64(dims_in)
        dout = _i64(dims_out)
        self._lib.repro_pair_cycles(
            din.ctypes.data, ins.ctypes.data, n,
            dout.ctypes.data, outs.ctypes.data, m,
            fin.ctypes.data, fout.ctypes.data, cycles.ctypes.data,
        )
        return fin, fout, cycles

    def map_network_dp(
        self,
        uvals: np.ndarray,
        spec: np.ndarray,
        row_limit: int,
        col_limit: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """The fused per-network search; see ``repro_map_network``.

        ``spec`` is ``(L, 14)`` per-layer records over the ``uvals``
        useful-value pool; returns ``(in_triples, out_triples,
        relayout_cycles, total_cost, total_candidates)``.
        """
        uvals = _i64(uvals)
        spec = _i64(spec)
        n_layers = len(spec)
        in_out = np.empty((n_layers, 3), dtype=np.int64)
        out_out = np.empty((n_layers, 3), dtype=np.int64)
        relayout = np.empty(n_layers, dtype=np.int64)
        cost = np.empty(1, dtype=np.int64)
        total = self._lib.repro_map_network(
            uvals.ctypes.data, spec.ctypes.data, n_layers,
            ctypes.c_int64(row_limit), ctypes.c_int64(col_limit),
            in_out.ctypes.data, out_out.ctypes.data,
            relayout.ctypes.data, cost.ctypes.data,
        )
        if total < 0:
            raise MappingError(
                f"map-network kernel rejected its inputs (code {int(total)})"
            )
        return in_out, out_out, relayout, int(cost[0]), int(total)

    # -- sim ------------------------------------------------------------------

    def flexflow_store_sums(
        self,
        n_total: np.ndarray,
        k_total: np.ndarray,
        s_total: np.ndarray,
        m_total: np.ndarray,
        tn: np.ndarray,
        ti: np.ndarray,
        tj: np.ndarray,
        tr: np.ndarray,
        tc: np.ndarray,
        cap: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(kernel_bus, kernel_misses)`` per configuration."""
        cols = [_i64(x) for x in (
            n_total, k_total, s_total, m_total, tn, ti, tj, tr, tc, cap
        )]
        batch = len(cols[0])
        bus = np.empty(batch, dtype=np.int64)
        misses = np.empty(batch, dtype=np.int64)
        self._lib.repro_flexflow_store_sums(
            batch, *(col.ctypes.data for col in cols),
            bus.ctypes.data, misses.ctypes.data,
        )
        return bus, misses

    def store_replay(
        self,
        stores,
        coords: np.ndarray,
        active: np.ndarray,
        tile_len: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(miss, seq)`` of one access stream; see ``repro_store_replay``.

        ``stores`` is a :class:`~repro.kernels.replay.StoreRings`, updated
        in place.  The plain loop needs no tile structure; ``tile_len`` is
        accepted for signature parity with NumPy.
        """
        _check_rings(stores)
        coords = _i64(coords)
        active = np.ascontiguousarray(active, dtype=bool)
        steps, n_stores = coords.shape
        if active.shape != coords.shape or len(stores.counts) != n_stores:
            raise ValueError("store_replay: mismatched stream shapes")
        if coords.size and (coords.min() < 0 or coords.max() >= _COORD_LIMIT):
            raise ValueError("store_replay: coordinate outside [0, 2**32)")
        miss = np.empty((steps, n_stores), dtype=bool)
        seq = np.empty((steps, n_stores), dtype=np.int64)
        status = self._lib.repro_store_replay(
            stores.ring.ctypes.data, stores.offset.ctypes.data,
            stores.counts.ctypes.data, stores.capacity.ctypes.data,
            coords.ctypes.data, active.ctypes.data, steps, n_stores,
            miss.ctypes.data, seq.ctypes.data,
        )
        if status < 0:
            raise MemoryError("store_replay: out of scratch memory")
        return miss, seq

    def flexflow_group(
        self,
        padded: np.ndarray,
        kernels: np.ndarray,
        m0: int,
        *,
        out_size: int,
        stride: int,
        rows_per_map: int,
        row_offsets: np.ndarray,
        origins: np.ndarray,
        col_ok: np.ndarray,
        neuron_base: np.ndarray,
        kernel_base: np.ndarray,
        stores,
        outputs: np.ndarray,
    ) -> Dict[str, int]:
        """Run one output-map tile group; see ``repro_flexflow_group``.

        ``padded`` is ``(N, P, P)`` and ``kernels`` ``(M, N, K, K)``, both
        ``float64``.  ``row_offsets`` holds each PE row's ``(dm, dr, dc)``,
        ``origins`` each spatial tile's ``(r0, c0)``; ``col_ok``,
        ``neuron_base`` and ``kernel_base`` are ``(steps, cols)``.
        ``stores`` (a :class:`~repro.kernels.replay.StoreRings` of every
        PE's neuron store, then every PE's kernel store) and ``outputs``
        are updated in place.  Returns the group's counter deltas by
        :class:`~repro.sim.trace.SimTrace` field name.
        """
        for name, arr, dtype in (
            ("padded", padded, np.float64),
            ("kernels", kernels, np.float64),
            ("outputs", outputs, np.float64),
        ):
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise ValueError(
                    f"{name} must be a contiguous {dtype.__name__} array"
                )
        _check_rings(stores)
        row_offsets, origins = _i64(row_offsets), _i64(origins)
        neuron_base, kernel_base = _i64(neuron_base), _i64(kernel_base)
        col_ok = np.ascontiguousarray(col_ok, dtype=bool)
        m_total, padded_size = kernels.shape[0], padded.shape[1]
        rows, cols = len(row_offsets), col_ok.shape[1]
        kernel_m = kernels[0].size
        if max(padded.size, kernels.size) > _COORD_LIMIT:
            raise ValueError("flexflow_group: operands past 2**32 words")
        if (
            row_offsets.shape != (rows, 3)
            or origins.shape[1:] != (2,)
            or neuron_base.shape != col_ok.shape
            or kernel_base.shape != col_ok.shape
            or rows % rows_per_map
            or stores.counts.shape != (2 * rows * cols,)
            or outputs.size != m_total * out_size * out_size
        ):
            raise ValueError("flexflow_group: mismatched operand shapes")
        last = (out_size - 1) * stride
        if (
            min(row_offsets.min(initial=0), origins.min(initial=0)) < 0
            or neuron_base.min(where=col_ok, initial=0) < 0
            or kernel_base.min(where=col_ok, initial=0) < 0
            or neuron_base.max(where=col_ok, initial=0)
            + last * padded_size + last >= padded.size
            or kernel_base.max(where=col_ok, initial=0)
            + (m_total - 1) * kernel_m >= kernels.size
        ):
            raise ValueError("flexflow_group: coordinate outside the operands")
        geom = _i64([
            m0, m_total, out_size, stride, padded_size, rows, cols,
            col_ok.shape[0], len(origins), rows_per_map, kernel_m,
        ])
        counters = np.empty(len(FLEXFLOW_GROUP_COUNTERS), dtype=np.int64)
        status = self._lib.repro_flexflow_group(
            padded.ctypes.data, kernels.ctypes.data, geom.ctypes.data,
            row_offsets.ctypes.data, origins.ctypes.data, col_ok.ctypes.data,
            neuron_base.ctypes.data, kernel_base.ctypes.data,
            stores.ring.ctypes.data, stores.offset.ctypes.data,
            stores.counts.ctypes.data, stores.capacity.ctypes.data,
            outputs.ctypes.data, counters.ctypes.data,
        )
        if status < 0:
            raise MemoryError("flexflow_group: out of scratch memory")
        return dict(zip(FLEXFLOW_GROUP_COUNTERS, counters.tolist()))

    def systolic_layer(
        self,
        images: np.ndarray,
        kernels: np.ndarray,
        *,
        out_size: int,
        fifo_capacity: int,
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Run one layer's systolic pipeline; see ``repro_systolic_layer``.

        ``images`` is the padded ``(N, P, P)`` input and ``kernels``
        ``(M, N, K, K)``, both ``float64``; each inter-row FIFO holds
        ``fifo_capacity`` flights.  Returns the ``(M, S, S)`` outputs and
        the event counts of one ``(m, n)`` pair by
        :class:`~repro.sim.trace.SimTrace` field name.  A failed machine
        check raises :class:`SimulationError`.
        """
        k = kernels.shape[-1]
        if out_size < 1 or fifo_capacity < 1:
            raise ValueError(
                "systolic_layer: out_size and capacity must be positive"
            )
        images, kernels = _layer_operands(images, kernels, out_size + k - 1)
        maps_out, maps_in = kernels.shape[:2]
        _, height, width = images.shape
        outputs = np.zeros((maps_out, out_size, out_size))
        geom = _i64([maps_out, maps_in, k, height, width, out_size, fifo_capacity])
        counters = np.empty(len(SYSTOLIC_LAYER_COUNTERS), dtype=np.int64)
        info = np.zeros(6, dtype=np.int64)
        status = self._lib.repro_systolic_layer(
            images.ctypes.data, kernels.ctypes.data,
            geom.ctypes.data, outputs.ctypes.data, counters.ctypes.data,
            info.ctypes.data,
        )
        if status < 0:
            raise MemoryError("systolic_layer: out of scratch memory")
        if status == 1:
            i, j, r, c, rr, cc = info.tolist()
            raise SimulationError(
                f"pipeline timing broken at PE({i},{j}): output"
                f" ({r},{c}) at broadcast ({rr},{cc})"
            )
        if status == 2:
            raise SimulationError(f"row-fifo-{info[0]}: push into full FIFO")
        if status == 3:
            raise SimulationError(
                f"row FIFO {info[0]} not drained at end of layer"
            )
        if status == 4:
            r, c, taps = info[:3].tolist()
            raise SimulationError(
                f"output ({r},{c}) drained with {taps} of {k * k} taps"
            )
        return outputs, dict(zip(SYSTOLIC_LAYER_COUNTERS, counters.tolist()))

    def mapping2d_layer(
        self,
        images: np.ndarray,
        kernels: np.ndarray,
        *,
        out_size: int,
        block: int,
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Run every block of a stride-1 layer on the 2D-Mapping array;
        see ``repro_mapping2d_layer``.

        Operands as for :meth:`systolic_layer`; ``block`` is the array
        side.  Returns the ``(M, S, S)`` outputs and the layer's counters
        by :class:`~repro.sim.trace.SimTrace` field name.  A misaligned
        window raises :class:`SimulationError`.
        """
        if out_size < 1 or block < 1:
            raise ValueError(
                "mapping2d_layer: out_size and block must be positive"
            )
        k = kernels.shape[-1]
        images, kernels = _layer_operands(images, kernels, out_size + k - 1)
        outputs = np.zeros((kernels.shape[0], out_size, out_size))
        geom = _i64([*kernels.shape[:3], images.shape[1], out_size, block])
        counters = np.empty(len(MAPPING2D_LAYER_COUNTERS), dtype=np.int64)
        info = np.zeros(2, dtype=np.int64)
        held = np.zeros(2)
        status = self._lib.repro_mapping2d_layer(
            images.ctypes.data, kernels.ctypes.data,
            geom.ctypes.data, outputs.ctypes.data, counters.ctypes.data,
            info.ctypes.data, held.ctypes.data,
        )
        if status < 0:
            raise MemoryError("mapping2d_layer: out of scratch memory")
        if status == 1:
            i, j = info.tolist()
            raise SimulationError(
                f"window misaligned at kernel ({i},{j}):"
                f" PE(0,0) holds {held[0]}, expected {held[1]}"
            )
        return outputs, dict(zip(MAPPING2D_LAYER_COUNTERS, counters.tolist()))

    def tiling_layer(
        self,
        images: np.ndarray,
        kernels: np.ndarray,
        *,
        out_size: int,
        stride: int,
        tm: int,
        tn: int,
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Run the tiling engine over one layer; see ``repro_tiling_layer``.

        Operands as for :meth:`systolic_layer`, with ``Tm x Tn`` tiles.
        Returns the ``(M, S, S)`` outputs and the layer's counters by
        :class:`~repro.sim.trace.SimTrace` field name.
        """
        if min(out_size, stride, tm, tn) < 1:
            raise ValueError("tiling_layer: sizes must be positive")
        k = kernels.shape[-1]
        images, kernels = _layer_operands(
            images, kernels, (out_size - 1) * stride + k
        )
        outputs = np.zeros((kernels.shape[0], out_size, out_size))
        geom = _i64([
            *kernels.shape[:3], images.shape[1], out_size, stride, tm, tn,
        ])
        counters = np.empty(len(TILING_LAYER_COUNTERS), dtype=np.int64)
        status = self._lib.repro_tiling_layer(
            images.ctypes.data, kernels.ctypes.data,
            geom.ctypes.data, outputs.ctypes.data, counters.ctypes.data,
        )
        if status < 0:
            raise MemoryError("tiling_layer: out of scratch memory")
        return outputs, dict(zip(TILING_LAYER_COUNTERS, counters.tolist()))

    # -- faults ---------------------------------------------------------------

    def surviving_structures(
        self, flags: np.ndarray, n_struct: int, size: int
    ) -> int:
        """Structures (row-major groups of ``size`` PEs) with no dead member."""
        flags = np.ascontiguousarray(flags, dtype=np.uint8)
        return int(
            self._lib.repro_surviving_structures(
                flags.ctypes.data, len(flags), n_struct, size
            )
        )


def load(build_dir: Optional[Path] = None) -> Tuple[CExtKernels, bool]:
    """Build (if needed) and bind the C backend; ``(suite, freshly_built)``."""
    so_path, built = build_library(build_dir)
    try:
        lib = _bind(ctypes.CDLL(str(so_path)))
    except OSError as exc:
        raise KernelBuildError(f"cannot load {so_path}: {exc}") from exc
    return CExtKernels(lib), built
