"""The Section 5 compiler: workload analysis, codegen, and assembly."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".executor": (
            "ProgramExecutor",
            "BatchReport",
            "ExecutionReport",
            "InstructionTiming",
        ),
        ".isa": ("Instruction", "Opcode", "OPERAND_COUNTS", "decode"),
        ".program": ("Program",),
        ".codegen": ("compile_network",),
        ".assembler": ("to_asm", "parse_asm", "assemble", "disassemble"),
    },
)
