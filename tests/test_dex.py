"""Tests for the simplified DEX substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dex import (
    AccessFlag,
    ClassBuilder,
    DexClass,
    DexField,
    DexFile,
    DexMethod,
    Instruction,
    MethodRef,
    Opcode,
    deserialize_dex,
    serialize_dex,
)
from repro.errors import DexError


def simple_class():
    builder = ClassBuilder("com.example.app.MainActivity",
                           superclass="android.app.Activity")
    method = builder.method("onCreate", "(android.os.Bundle)void")
    method.new_instance("android.webkit.WebView")
    method.const_string("https://example.com")
    method.invoke_virtual("android.webkit.WebView", "loadUrl",
                          "(java.lang.String)void")
    method.return_void()
    return builder.build()


class TestMethodRef:
    def test_parameter_types(self):
        ref = MethodRef("C", "m", "(java.lang.String,int)void")
        assert ref.parameter_types == ["java.lang.String", "int"]

    def test_empty_parameters(self):
        assert MethodRef("C", "m", "()void").parameter_types == []

    def test_return_type(self):
        assert MethodRef("C", "m", "()boolean").return_type == "boolean"

    def test_equality_and_hash(self):
        a = MethodRef("C", "m", "()void")
        b = MethodRef("C", "m", "()void")
        assert a == b
        assert hash(a) == hash(b)
        assert a != MethodRef("C", "m", "()int")


class TestInstruction:
    def test_invoke_requires_methodref(self):
        with pytest.raises(DexError):
            Instruction(Opcode.INVOKE_VIRTUAL, "not-a-ref")

    def test_const_string_requires_str(self):
        with pytest.raises(DexError):
            Instruction(Opcode.CONST_STRING, 42)

    def test_new_instance_requires_str(self):
        with pytest.raises(DexError):
            Instruction(Opcode.NEW_INSTANCE, None)

    def test_is_invoke_property(self):
        ref = MethodRef("C", "m")
        assert Instruction(Opcode.INVOKE_STATIC, ref).opcode.is_invoke
        assert not Instruction(Opcode.RETURN_VOID).opcode.is_invoke


class TestModel:
    def test_class_package(self):
        assert simple_class().package == "com.example.app"

    def test_default_package_is_empty(self):
        assert DexClass("Standalone").package == ""

    def test_simple_name(self):
        assert simple_class().simple_name == "MainActivity"

    def test_empty_class_name_raises(self):
        with pytest.raises(DexError):
            DexClass("")

    def test_method_lookup(self):
        cls = simple_class()
        assert cls.method("onCreate") is not None
        assert cls.method("missing") is None

    def test_method_lookup_with_descriptor(self):
        cls = simple_class()
        assert cls.method("onCreate", "(android.os.Bundle)void") is not None
        assert cls.method("onCreate", "()void") is None

    def test_invoked_refs(self):
        method = simple_class().method("onCreate")
        refs = list(method.invoked_refs())
        assert len(refs) == 1
        assert refs[0].method_name == "loadUrl"

    def test_string_constants(self):
        method = simple_class().method("onCreate")
        assert [i.operand for i in method.instructions
                if i.opcode == Opcode.CONST_STRING] == ["https://example.com"]

    def test_source_file_defaults(self):
        assert simple_class().source_file == "MainActivity.java"


class TestDexFile:
    def test_class_by_name(self):
        dex = DexFile([simple_class()])
        assert dex.class_by_name("com.example.app.MainActivity") is not None
        assert dex.class_by_name("missing") is None

    def test_add_class_invalidates_cache(self):
        dex = DexFile()
        assert dex.class_by_name("X") is None
        dex.add_class(DexClass("X"))
        assert dex.class_by_name("X") is not None

    def test_iter_methods(self):
        dex = DexFile([simple_class()])
        pairs = list(dex.iter_methods())
        assert len(pairs) == 1
        assert pairs[0][1].name == "onCreate"

    def test_superclass_chain_through_file(self):
        base = DexClass("a.Base", superclass="android.webkit.WebView")
        derived = DexClass("a.Derived", superclass="a.Base")
        dex = DexFile([base, derived])
        chain = dex.superclass_chain("a.Derived")
        assert chain == ["a.Derived", "a.Base", "android.webkit.WebView"]

    def test_superclass_chain_object_terminates(self):
        dex = DexFile([DexClass("a.Plain")])
        assert dex.superclass_chain("a.Plain") == ["a.Plain", "java.lang.Object"]

    def test_superclass_cycle_raises(self):
        a = DexClass("a.A", superclass="a.B")
        b = DexClass("a.B", superclass="a.A")
        dex = DexFile([a, b])
        with pytest.raises(DexError):
            dex.superclass_chain("a.A")


class TestAssembler:
    def test_builder_produces_expected_instructions(self):
        cls = simple_class()
        opcodes = [i.opcode for i in cls.method("onCreate").instructions]
        assert opcodes == [
            Opcode.NEW_INSTANCE,
            Opcode.CONST_STRING,
            Opcode.INVOKE_VIRTUAL,
            Opcode.RETURN_VOID,
        ]

    def test_constructor_flags(self):
        builder = ClassBuilder("a.B")
        builder.constructor().return_void()
        cls = builder.build()
        ctor = cls.method("<init>")
        assert ctor.flags & AccessFlag.CONSTRUCTOR

    def test_field_builder(self):
        builder = ClassBuilder("a.B")
        builder.field("webView", "android.webkit.WebView")
        cls = builder.build()
        assert cls.fields[0].name == "webView"

    def test_done_returns_class_builder(self):
        builder = ClassBuilder("a.B")
        assert builder.method("m").return_void().done() is builder


class TestBinaryRoundtrip:
    def test_simple_roundtrip(self):
        dex = DexFile([simple_class()])
        restored = deserialize_dex(serialize_dex(dex))
        assert len(restored) == 1
        cls = restored.classes[0]
        assert cls.name == "com.example.app.MainActivity"
        assert cls.superclass == "android.app.Activity"
        method = cls.method("onCreate")
        assert [i.opcode for i in method.instructions] == [
            Opcode.NEW_INSTANCE,
            Opcode.CONST_STRING,
            Opcode.INVOKE_VIRTUAL,
            Opcode.RETURN_VOID,
        ]
        assert list(method.invoked_refs())[0] == MethodRef(
            "android.webkit.WebView", "loadUrl", "(java.lang.String)void"
        )

    def test_bad_magic_raises(self):
        with pytest.raises(DexError):
            deserialize_dex(b"nope" + b"\x00" * 32)

    def test_truncated_raises(self):
        data = serialize_dex(DexFile([simple_class()]))
        with pytest.raises(DexError):
            deserialize_dex(data[: len(data) // 2])

    def test_fields_and_interfaces_roundtrip(self):
        cls = DexClass(
            "a.B",
            superclass="a.Base",
            interfaces=["a.I1", "a.I2"],
            fields=[DexField("f", "int", AccessFlag.PUBLIC)],
            methods=[DexMethod("m", "()int", AccessFlag.STATIC,
                               [Instruction(Opcode.CONST_INT, 7),
                                Instruction(Opcode.RETURN)])],
        )
        restored = deserialize_dex(serialize_dex(DexFile([cls]))).classes[0]
        assert restored.interfaces == ["a.I1", "a.I2"]
        assert restored.fields[0] == DexField("f", "int", AccessFlag.PUBLIC)
        assert restored.method("m").instructions[0].operand == 7

    def test_field_access_instructions_roundtrip(self):
        method = DexMethod("m", "()void", AccessFlag.PUBLIC, [
            Instruction(Opcode.IPUT, ("a.B", "field")),
            Instruction(Opcode.IGET, ("a.B", "field")),
            Instruction(Opcode.RETURN_VOID),
        ])
        dex = DexFile([DexClass("a.B", methods=[method])])
        restored = deserialize_dex(serialize_dex(dex))
        instructions = restored.classes[0].method("m").instructions
        assert instructions[0].operand == ("a.B", "field")


_identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True)
_class_names = st.builds(
    lambda parts: ".".join(parts),
    st.lists(_identifiers, min_size=2, max_size=4),
)


def _instruction_strategy():
    ref = st.builds(
        MethodRef, _class_names, _identifiers,
        st.just("()void") | st.just("(java.lang.String)void"),
    )
    return st.one_of(
        st.builds(Instruction, st.just(Opcode.CONST_STRING),
                  st.text(max_size=30)),
        st.builds(Instruction, st.just(Opcode.CONST_INT),
                  st.integers(min_value=-2**31, max_value=2**31 - 1)),
        st.builds(Instruction, st.just(Opcode.NEW_INSTANCE), _class_names),
        st.builds(Instruction, st.just(Opcode.INVOKE_VIRTUAL), ref),
        st.builds(Instruction, st.just(Opcode.INVOKE_STATIC), ref),
        st.builds(Instruction, st.just(Opcode.RETURN_VOID)),
        st.builds(Instruction, st.just(Opcode.NOP)),
    )


_methods = st.builds(
    DexMethod,
    _identifiers,
    st.just("()void"),
    st.just(AccessFlag.PUBLIC),
    st.lists(_instruction_strategy(), max_size=8),
)

_classes = st.builds(
    lambda name, superclass, methods: DexClass(
        name, superclass=superclass, methods=methods
    ),
    _class_names,
    _class_names,
    st.lists(_methods, max_size=4),
)


class TestBinaryProperties:
    @given(st.lists(_classes, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_preserves_structure(self, classes):
        dex = DexFile(classes)
        restored = deserialize_dex(serialize_dex(dex))
        assert len(restored) == len(dex)
        for original, recovered in zip(dex.classes, restored.classes):
            assert recovered.name == original.name
            assert recovered.superclass == original.superclass
            assert len(recovered.methods) == len(original.methods)
            for m_orig, m_new in zip(original.methods, recovered.methods):
                assert m_new.name == m_orig.name
                assert m_new.instructions == m_orig.instructions

    @given(st.lists(_classes, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_serialization_deterministic(self, classes):
        dex = DexFile(classes)
        assert serialize_dex(dex) == serialize_dex(dex)
