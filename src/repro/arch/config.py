"""Architecture configuration shared by all four baselines.

Table 5 fixes the comparison's memory provisioning: every baseline gets a
32 KB neuron buffer and a 32 KB kernel buffer; FlexFlow additionally gives
each PE a 256 B neuron local store and a 256 B kernel local store.  The
computing scale is 256 PEs (16 x 16) for all baselines, scaled to 8x8 /
32x32 / 64x64 for the Figure 19 scalability study.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.arch.technology import TSMC65, TechnologyModel
from repro.errors import ConfigurationError
from repro.faults.mask import AvailabilityMask

KB = 1024


@dataclass(frozen=True)
class ArchConfig:
    """Sizing of one accelerator instance.

    Args:
        array_dim: ``D`` — the PE array is ``D x D`` (Section 5's
            convolutional unit).  Baselines interpret this as their own
            geometry of ``D*D`` total PEs (e.g. Systolic uses 7 arrays of
            ``Ta x Ta``).
        neuron_buffer_bytes: capacity of *each* of the two neuron buffers.
        kernel_buffer_bytes: capacity of the kernel buffer.
        neuron_store_bytes: per-PE neuron local store (FlexFlow only).
        kernel_store_bytes: per-PE kernel local store (FlexFlow only).
        buffer_banks: number of banks ``D`` per on-chip buffer, matching the
            paper's "D-banked buffers" (DataFlow3).  Defaults to
            ``array_dim`` when 0.
        pooling_alus: width of the 1-D pooling unit; defaults to
            ``array_dim`` when 0.
        technology: energy/area constants.
        pe_mask: optional PE availability mask (fault injection); ``None``
            means every PE is usable.  The mask's ``array_dim`` must match.
    """

    array_dim: int = 16
    neuron_buffer_bytes: int = 32 * KB
    kernel_buffer_bytes: int = 32 * KB
    neuron_store_bytes: int = 256
    kernel_store_bytes: int = 256
    buffer_banks: int = 0
    pooling_alus: int = 0
    technology: TechnologyModel = field(default_factory=lambda: TSMC65)
    pe_mask: Optional[AvailabilityMask] = None

    def __post_init__(self) -> None:
        for attr in (
            "array_dim",
            "neuron_buffer_bytes",
            "kernel_buffer_bytes",
            "neuron_store_bytes",
            "kernel_store_bytes",
        ):
            value = getattr(self, attr)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{attr} must be an int, got {value!r}"
                )
            if value <= 0:
                raise ConfigurationError(
                    f"{attr} must be positive, got {value}"
                )
        for attr in ("buffer_banks", "pooling_alus"):
            value = getattr(self, attr)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"{attr} must be an int, got {value!r}"
                )
            if value < 0:
                raise ConfigurationError("bank/ALU counts cannot be negative")
        if not isinstance(self.technology, TechnologyModel):
            raise ConfigurationError(
                f"technology must be a TechnologyModel, got"
                f" {type(self.technology).__name__}"
            )
        if self.technology.frequency_hz <= 0:
            raise ConfigurationError(
                f"technology frequency must be positive, got"
                f" {self.technology.frequency_hz}"
            )
        if self.pe_mask is not None:
            if not isinstance(self.pe_mask, AvailabilityMask):
                raise ConfigurationError(
                    f"pe_mask must be an AvailabilityMask, got"
                    f" {type(self.pe_mask).__name__}"
                )
            if self.pe_mask.array_dim != self.array_dim:
                raise ConfigurationError(
                    f"pe_mask is for a {self.pe_mask.array_dim}x"
                    f"{self.pe_mask.array_dim} array, config has"
                    f" array_dim={self.array_dim}"
                )

    # -- derived -------------------------------------------------------------

    @property
    def num_pes(self) -> int:
        """Total PEs in the computing engine (``D * D``)."""
        return self.array_dim * self.array_dim

    @property
    def banks(self) -> int:
        """Effective bank count per buffer (defaults to ``D``)."""
        return self.buffer_banks or self.array_dim

    @property
    def num_pooling_alus(self) -> int:
        return self.pooling_alus or self.array_dim

    @property
    def local_store_bytes_per_pe(self) -> int:
        """Total local storage per FlexFlow PE (512 B in Table 7)."""
        return self.neuron_store_bytes + self.kernel_store_bytes

    @property
    def neuron_store_words(self) -> int:
        return self.neuron_store_bytes // self.technology.word_bytes

    @property
    def kernel_store_words(self) -> int:
        return self.kernel_store_bytes // self.technology.word_bytes

    @property
    def neuron_buffer_words(self) -> int:
        return self.neuron_buffer_bytes // self.technology.word_bytes

    @property
    def kernel_buffer_words(self) -> int:
        return self.kernel_buffer_bytes // self.technology.word_bytes

    @property
    def nominal_gops(self) -> float:
        """Nominal performance in GOPS (2 ops per MAC at full occupancy)."""
        return 2.0 * self.num_pes * self.technology.frequency_hz / 1e9

    def scaled_to(self, array_dim: int) -> "ArchConfig":
        """This configuration at a different PE array scale.

        Buffer sizes scale linearly with ``D`` relative to the 16-PE
        baseline so larger engines are not starved — the same provisioning
        rule the paper uses for Figure 19.
        """
        if self.pe_mask is not None and not self.pe_mask.is_healthy:
            raise ConfigurationError(
                "cannot rescale a fault-masked configuration; build the"
                " mask for the target array dimension instead"
            )
        factor = array_dim / 16.0
        return replace(
            self,
            array_dim=array_dim,
            neuron_buffer_bytes=max(KB, int(self.neuron_buffer_bytes * factor)),
            kernel_buffer_bytes=max(KB, int(self.kernel_buffer_bytes * factor)),
            buffer_banks=0,
            pooling_alus=0,
            pe_mask=None,
        )


#: The paper's evaluation configuration (Table 5): 16x16 PEs, 32 KB buffers,
#: 256 B local stores.
DEFAULT_CONFIG = ArchConfig()
