"""The generated-C kernel backend: build, cache, and bind with ctypes.

The C source lives in :mod:`repro.kernels.csrc` as one translation unit.
:func:`load` writes it next to the kernels cache directory
(``cache_root()/kernels``), compiles it with the system C compiler
(``$CC`` or ``cc``/``gcc``, ``-O2 -shared -fPIC``) and memoizes the
shared object by the SHA-256 of the source + compiler command + ABI tag,
so editing a kernel or switching compilers rebuilds while repeated runs
(and concurrent processes — the build publishes through a unique temp
file and ``os.replace``) share one ``.so``.

Every binding coerces its inputs to contiguous ``int64`` arrays and
returns plain numpy arrays/ints, mirroring the NumPy expressions the
kernels replace — parity is pinned by ``tests/kernels/test_parity.py``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import MappingError, ReproError
from repro.kernels.csrc import KERNELS_C_ABI, KERNELS_C_SOURCE

Triple = Tuple[int, int, int]

_I64_P = ctypes.POINTER(ctypes.c_int64)
_U8_P = ctypes.POINTER(ctypes.c_uint8)


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
        (KERNELS_C_SOURCE, compiler, f"abi={KERNELS_C_ABI}")
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
                [compiler, "-O2", "-shared", "-fPIC", "-o", str(obj), str(src)],
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
    """Declare every exported function's signature."""
    lib.repro_enumerate_triples.restype = ctypes.c_int64
    lib.repro_enumerate_triples.argtypes = [
        _I64_P, ctypes.c_int64, _I64_P, ctypes.c_int64,
        _I64_P, ctypes.c_int64, ctypes.c_int64, _I64_P,
    ]
    lib.repro_pair_cycles.restype = None
    lib.repro_pair_cycles.argtypes = [
        _I64_P, _I64_P, ctypes.c_int64,
        _I64_P, _I64_P, ctypes.c_int64,
        _I64_P, _I64_P, _I64_P,
    ]
    lib.repro_map_network.restype = ctypes.c_int64
    lib.repro_map_network.argtypes = [
        _I64_P, _I64_P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64_P, _I64_P, _I64_P, _I64_P,
    ]
    lib.repro_flexflow_store_sums.restype = None
    lib.repro_flexflow_store_sums.argtypes = [
        ctypes.c_int64,
        _I64_P, _I64_P, _I64_P, _I64_P,
        _I64_P, _I64_P, _I64_P, _I64_P, _I64_P, _I64_P,
        _I64_P, _I64_P,
    ]
    lib.repro_surviving_structures.restype = ctypes.c_int64
    lib.repro_surviving_structures.argtypes = [
        _U8_P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
    ]
    lib.repro_store_replay.restype = None
    lib.repro_store_replay.argtypes = [
        _I64_P, _I64_P, _I64_P, _I64_P, _U8_P,
        ctypes.c_int64, ctypes.c_int64, _U8_P, _I64_P,
    ]
    return lib


def _i64(values, copy_ok: bool = True) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    return arr


def _ptr(arr: np.ndarray):
    return arr.ctypes.data_as(_I64_P)


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
            _ptr(a), len(a), _ptr(b), len(b), _ptr(c), len(c),
            ctypes.c_int64(limit), _ptr(out),
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
            _ptr(din), _ptr(ins), n, _ptr(dout), _ptr(outs), m,
            _ptr(fin), _ptr(fout), _ptr(cycles),
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
            _ptr(uvals), _ptr(spec), n_layers,
            ctypes.c_int64(row_limit), ctypes.c_int64(col_limit),
            _ptr(in_out), _ptr(out_out), _ptr(relayout), _ptr(cost),
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
            batch, *(_ptr(col) for col in cols), _ptr(bus), _ptr(misses)
        )
        return bus, misses

    def store_replay(
        self,
        table: np.ndarray,
        counts: np.ndarray,
        capacity: np.ndarray,
        coords: np.ndarray,
        active: np.ndarray,
        tile_len: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(miss, seq)`` of one access stream; see ``repro_store_replay``.

        ``table`` and ``counts`` are updated in place, so they must already
        be contiguous ``int64``.  The plain loop needs no tile structure;
        ``tile_len`` is accepted for signature parity with NumPy.
        """
        for name, arr in (("table", table), ("counts", counts)):
            if arr.dtype != np.int64 or not arr.flags.c_contiguous:
                raise ValueError(f"{name} must be a contiguous int64 array")
        capacity = _i64(capacity)
        coords = _i64(coords)
        active = np.ascontiguousarray(active, dtype=bool)
        steps, stores = coords.shape
        if (
            active.shape != coords.shape
            or counts.shape != (stores,)
            or capacity.shape != (stores,)
        ):
            raise ValueError("store_replay: mismatched stream shapes")
        if coords.size and (coords.min() < 0 or coords.max() >= table.size):
            raise ValueError("store_replay: coordinate outside the table")
        miss = np.empty((steps, stores), dtype=bool)
        seq = np.empty((steps, stores), dtype=np.int64)
        self._lib.repro_store_replay(
            _ptr(table), _ptr(counts), _ptr(capacity), _ptr(coords),
            active.ctypes.data_as(_U8_P), steps, stores,
            miss.ctypes.data_as(_U8_P), _ptr(seq),
        )
        return miss, seq

    # -- faults ---------------------------------------------------------------

    def surviving_structures(
        self, flags: np.ndarray, n_struct: int, size: int
    ) -> int:
        """Structures (row-major groups of ``size`` PEs) with no dead member."""
        flags = np.ascontiguousarray(flags, dtype=np.uint8)
        return int(
            self._lib.repro_surviving_structures(
                flags.ctypes.data_as(_U8_P), len(flags), n_struct, size
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
