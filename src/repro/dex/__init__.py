"""Simplified DEX bytecode substrate.

Real Android apps ship Dalvik Executable (DEX) files; Androguard builds call
graphs from their ``invoke-*`` instructions. This package implements a
simplified but binary-faithful equivalent: a class/method/instruction model
(:mod:`repro.dex.model`), a compact binary format with a shared string pool
(:mod:`repro.dex.binary`), and a small assembler API used by the corpus
generator to emit app code (:mod:`repro.dex.assembler`).
"""

from repro.dex.constants import Opcode, AccessFlag
from repro.dex.model import (
    DexFile,
    DexClass,
    DexMethod,
    DexField,
    Instruction,
    MethodRef,
)
from repro.dex.binary import (
    class_digest,
    deserialize_dex,
    serialize_class,
    serialize_dex,
)
from repro.dex.assembler import ClassBuilder, MethodBuilder

__all__ = [
    "Opcode",
    "AccessFlag",
    "DexFile",
    "DexClass",
    "DexMethod",
    "DexField",
    "Instruction",
    "MethodRef",
    "serialize_dex",
    "deserialize_dex",
    "serialize_class",
    "class_digest",
    "ClassBuilder",
    "MethodBuilder",
]
