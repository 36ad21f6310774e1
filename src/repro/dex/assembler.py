"""Fluent builders for emitting simplified-DEX classes.

The corpus generator uses these to synthesize app and SDK code, e.g.::

    cls = ClassBuilder("com.example.ads.AdWebActivity",
                       superclass="android.app.Activity")
    method = cls.method("onCreate", "(android.os.Bundle)void")
    method.new_instance("android.webkit.WebView")
    method.const_string("https://ads.example.com/banner")
    method.invoke_virtual("android.webkit.WebView", "loadUrl",
                          "(java.lang.String)void")
    method.return_void()
    dex_class = cls.build()
"""

from repro.dex.constants import AccessFlag, Opcode
from repro.dex.model import (
    DexClass,
    DexField,
    DexMethod,
    Instruction,
    MethodRef,
)


class MethodBuilder:
    """Accumulates instructions for one method."""

    def __init__(self, class_builder, name, descriptor, flags):
        self._class_builder = class_builder
        self.name = name
        self.descriptor = descriptor
        self.flags = flags
        self.instructions = []

    def emit(self, opcode, operand=None):
        self.instructions.append(Instruction(opcode, operand))
        return self

    def const_string(self, value):
        return self.emit(Opcode.CONST_STRING, value)

    def new_instance(self, class_name):
        return self.emit(Opcode.NEW_INSTANCE, class_name)

    def invoke_virtual(self, class_name, method_name, descriptor="()void"):
        return self.emit(
            Opcode.INVOKE_VIRTUAL, MethodRef(class_name, method_name, descriptor)
        )

    def invoke_static(self, class_name, method_name, descriptor="()void"):
        return self.emit(
            Opcode.INVOKE_STATIC, MethodRef(class_name, method_name, descriptor)
        )

    def invoke_direct(self, class_name, method_name, descriptor="()void"):
        return self.emit(
            Opcode.INVOKE_DIRECT, MethodRef(class_name, method_name, descriptor)
        )

    def invoke_super(self, class_name, method_name, descriptor="()void"):
        return self.emit(
            Opcode.INVOKE_SUPER, MethodRef(class_name, method_name, descriptor)
        )

    def call(self, ref):
        """Invoke an arbitrary :class:`MethodRef` virtually."""
        return self.emit(Opcode.INVOKE_VIRTUAL, ref)

    def sget(self, class_name, field_name):
        return self.emit(Opcode.SGET, (class_name, field_name))

    def sput(self, class_name, field_name):
        return self.emit(Opcode.SPUT, (class_name, field_name))

    def move_result(self):
        return self.emit(Opcode.MOVE_RESULT)

    def return_void(self):
        return self.emit(Opcode.RETURN_VOID)

    def return_value(self):
        return self.emit(Opcode.RETURN)

    def done(self):
        """Return the parent class builder (for chaining)."""
        return self._class_builder

    def build(self):
        return DexMethod(self.name, self.descriptor, self.flags,
                         self.instructions)


class ClassBuilder:
    """Accumulates fields and methods for one class."""

    def __init__(self, name, superclass="java.lang.Object", interfaces=None,
                 flags=AccessFlag.PUBLIC):
        self.name = name
        self.superclass = superclass
        self.interfaces = list(interfaces or [])
        self.flags = flags
        self._fields = []
        self._methods = []

    def field(self, name, type_name, flags=AccessFlag.PRIVATE):
        self._fields.append(DexField(name, type_name, flags))
        return self

    def method(self, name, descriptor="()void", flags=AccessFlag.PUBLIC):
        builder = MethodBuilder(self, name, descriptor, flags)
        self._methods.append(builder)
        return builder

    def constructor(self, descriptor="()void"):
        return self.method(
            "<init>", descriptor, AccessFlag.PUBLIC | AccessFlag.CONSTRUCTOR
        )

    def build(self):
        return DexClass(
            self.name,
            superclass=self.superclass,
            interfaces=self.interfaces,
            flags=self.flags,
            fields=list(self._fields),
            methods=[m.build() for m in self._methods],
        )
