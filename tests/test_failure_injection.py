"""Failure-injection tests: the machine models fail loudly, not silently.

Each test injects a specific class of hardware/mapping bug — bank
conflicts, garbage reads, broken pipeline timing, infeasible factors,
corrupted programs — and asserts the corresponding model raises the
domain exception rather than producing wrong numbers.
"""

import numpy as np
import pytest

from repro.arch import (
    ArchConfig,
    BankedBuffer,
    CommonDataBus,
    FifoLink,
    LocalStore,
)
from repro.compiler import Instruction, Opcode, Program, disassemble
from repro.dataflow import NeuronPlacement, UnrollingFactors
from repro.errors import (
    CapacityError,
    CompilationError,
    MappingError,
    SimulationError,
)
from repro.nn import ConvLayer, make_inputs, make_kernels
from repro.sim import FlexFlowFunctionalSim
from tests.sim_oracle import CoordStore


class TestStorageFaults:
    def test_reading_garbage_local_store_raises(self):
        store = LocalStore(capacity_words=16)
        store.write(3, 1.0)
        with pytest.raises(SimulationError, match="unwritten"):
            store.read(4)

    def test_local_store_overflow_raises(self):
        store = LocalStore(capacity_words=4)
        with pytest.raises(CapacityError):
            store.write(100, 1.0)

    def test_coordstore_read_after_eviction_raises(self):
        store = CoordStore(2, "s")
        store.write("a", 1.0)
        store.write("b", 2.0)
        store.write("c", 3.0)  # evicts "a"
        with pytest.raises(SimulationError, match="not resident"):
            store.read("a")

    def test_bank_conflict_detected(self):
        # A broken IADP placement that puts two same-cycle words in one
        # bank must be flagged, not silently serialized.
        buf = BankedBuffer(capacity_bytes=256, banks=4)
        buf.write(2, 0, 1.0)
        buf.write(2, 1, 2.0)
        with pytest.raises(SimulationError, match="conflict"):
            buf.read_cycle([(2, 0), (2, 1)])

    def test_correct_iadp_placement_never_conflicts(self):
        # Counter-check: the real placement's per-cycle reads hit distinct
        # banks by construction.
        factors = UnrollingFactors(tm=1, tn=2, tr=1, tc=1, ti=2, tj=2)
        placement = NeuronPlacement(factors=factors, in_maps=2, in_size=6)
        buf = BankedBuffer(capacity_bytes=4096, banks=placement.num_banks)
        for n in range(2):
            for r in range(6):
                for c in range(6):
                    bank, offset = placement.locate(n, r, c)
                    buf.write(bank, offset, 1.0)
        # One cycle fetches the (Tn x Ti x Tj) residue grid at some base.
        requests = []
        for n in range(2):
            for r in range(2):
                for c in range(2):
                    requests.append(placement.locate(n, r, c))
        assert buf.read_cycle(requests) == [1.0] * len(requests)


class TestInterconnectFaults:
    def test_fifo_overflow_is_scheduling_bug(self):
        fifo = FifoLink(depth=1)
        fifo.push(1.0)
        with pytest.raises(SimulationError):
            fifo.push(2.0)

    def test_fifo_underflow_is_scheduling_bug(self):
        with pytest.raises(SimulationError):
            FifoLink(depth=1).pop()

    def test_bus_target_out_of_range(self):
        bus = CommonDataBus("v", num_stops=4)
        with pytest.raises(SimulationError):
            bus.broadcast(1.0, [0, 7])


class TestMappingFaults:
    def test_oversubscribed_factors_rejected_before_simulation(self):
        layer = ConvLayer("c", in_maps=4, out_maps=4, out_size=4, kernel=3)
        bad = UnrollingFactors(tm=4, tn=4, tr=2, tc=2, ti=3, tj=3)
        sim = FlexFlowFunctionalSim(ArchConfig(array_dim=4), factors=bad)
        with pytest.raises(MappingError):
            sim.run_layer(layer, make_inputs(layer), make_kernels(layer))

    def test_factors_exceeding_layer_dims_rejected(self):
        layer = ConvLayer("c", in_maps=1, out_maps=2, out_size=4, kernel=2)
        bad = UnrollingFactors(tm=1, tn=1, tr=1, tc=1, ti=3, tj=1)  # Ti > K
        with pytest.raises(MappingError, match="ti"):
            bad.check(layer, 8)


class TestProgramFaults:
    def test_truncated_binary_rejected(self):
        good = Program(
            "p",
            (
                Instruction(Opcode.CFG, (1, 1, 1, 1, 1, 1)),
                Instruction(Opcode.CONV, (5,)),
                Instruction(Opcode.HLT),
            ),
        )
        words = good.encode()
        with pytest.raises(CompilationError):
            disassemble(words[:-2])  # drop the CONV operand and HLT

    def test_bitflipped_opcode_rejected(self):
        good = Program(
            "p",
            (
                Instruction(Opcode.CFG, (1, 1, 1, 1, 1, 1)),
                Instruction(Opcode.HLT),
            ),
        )
        words = good.encode()
        words[0] = 0xC  # no such opcode
        with pytest.raises(CompilationError, match="unknown opcode"):
            disassemble(words)


class TestNumericalIntegrity:
    def test_corrupted_kernel_changes_output(self):
        # Sanity: the functional sim is actually sensitive to its inputs
        # (a stuck-at fault in the kernel store would be detected by the
        # golden-model comparison).
        layer = ConvLayer("c", in_maps=1, out_maps=1, out_size=4, kernel=2)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        sim = FlexFlowFunctionalSim(ArchConfig(array_dim=4))
        clean, _ = sim.run_layer(layer, inputs, kernels)
        corrupted = kernels.copy()
        corrupted[0, 0, 0, 0] += 1.0
        sim2 = FlexFlowFunctionalSim(ArchConfig(array_dim=4))
        dirty, _ = sim2.run_layer(layer, inputs, corrupted)
        assert not np.allclose(clean, dirty)
