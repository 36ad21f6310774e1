"""Object model for the simplified DEX format.

Class names use Java *binary* naming with dots (``com.example.app.MainActivity``)
rather than Dalvik type descriptors, which keeps every layer of the pipeline
(source generation, parsing, call graphs, SDK labelling) in one namespace.
"""

from repro.dex.constants import Opcode, AccessFlag
from repro.errors import DexError


class MethodRef:
    """A reference to a method: (class name, method name, descriptor).

    The descriptor is a compact signature string such as
    ``(java.lang.String)void`` — parameter types comma-separated inside the
    parentheses, return type after.
    """

    __slots__ = ("class_name", "method_name", "descriptor", "_hash")

    def __init__(self, class_name, method_name, descriptor="()void"):
        self.class_name = class_name
        self.method_name = method_name
        self.descriptor = descriptor

    @property
    def parameter_types(self):
        inside = self.descriptor[self.descriptor.index("(") + 1:
                                 self.descriptor.index(")")]
        if not inside:
            return []
        return [p.strip() for p in inside.split(",")]

    @property
    def return_type(self):
        return self.descriptor[self.descriptor.index(")") + 1:]

    def key(self):
        return (self.class_name, self.method_name, self.descriptor)

    def __eq__(self, other):
        return (
            isinstance(other, MethodRef)
            and self.class_name == other.class_name
            and self.method_name == other.method_name
            and self.descriptor == other.descriptor
        )

    def __hash__(self):
        # Refs are hashed constantly as graph keys; memoize (instances
        # are immutable in practice, and __slots__ keeps this lazy).
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(
                (self.class_name, self.method_name, self.descriptor)
            )
            return self._hash

    def __repr__(self):
        return "MethodRef(%s.%s%s)" % (
            self.class_name, self.method_name, self.descriptor
        )


class Instruction:
    """A single bytecode instruction: opcode plus one optional operand."""

    __slots__ = ("opcode", "operand")

    def __init__(self, opcode, operand=None):
        self.opcode = Opcode(opcode)
        self.operand = operand
        self._validate()

    def _validate(self):
        if self.opcode.is_invoke and not isinstance(self.operand, MethodRef):
            raise DexError(
                "invoke instruction requires a MethodRef operand, got %r"
                % (self.operand,)
            )
        if self.opcode == Opcode.CONST_STRING and not isinstance(self.operand, str):
            raise DexError("const-string requires a string operand")
        if self.opcode == Opcode.NEW_INSTANCE and not isinstance(self.operand, str):
            raise DexError("new-instance requires a class-name operand")

    def __eq__(self, other):
        return (
            isinstance(other, Instruction)
            and self.opcode == other.opcode
            and self.operand == other.operand
        )

    def __hash__(self):
        return hash((self.opcode, self.operand))

    def __repr__(self):
        if self.operand is None:
            return "Instruction(%s)" % self.opcode.name
        return "Instruction(%s, %r)" % (self.opcode.name, self.operand)


class DexField:
    """A class field: name and declared type."""

    __slots__ = ("name", "type_name", "flags")

    def __init__(self, name, type_name, flags=AccessFlag.PRIVATE):
        self.name = name
        self.type_name = type_name
        self.flags = AccessFlag(flags)

    def __eq__(self, other):
        return (
            isinstance(other, DexField)
            and (self.name, self.type_name, self.flags)
            == (other.name, other.type_name, other.flags)
        )

    def __repr__(self):
        return "DexField(%s: %s)" % (self.name, self.type_name)


class DexMethod:
    """A method: name, descriptor, flags and instruction list."""

    def __init__(self, name, descriptor="()void",
                 flags=AccessFlag.PUBLIC, instructions=None):
        self.name = name
        self.descriptor = descriptor
        self.flags = AccessFlag(flags)
        self.instructions = list(instructions or [])

    @property
    def parameter_types(self):
        return MethodRef("", self.name, self.descriptor).parameter_types

    @property
    def return_type(self):
        return MethodRef("", self.name, self.descriptor).return_type

    def invoked_refs(self):
        """Yield every MethodRef invoked by this method, in order."""
        for instruction in self.instructions:
            if instruction.opcode.is_invoke:
                yield instruction.operand

    def __repr__(self):
        return "DexMethod(%s%s, %d instrs)" % (
            self.name, self.descriptor, len(self.instructions)
        )


class DexClass:
    """A class: binary name, superclass, interfaces, fields, methods."""

    def __init__(self, name, superclass="java.lang.Object", interfaces=None,
                 flags=AccessFlag.PUBLIC, fields=None, methods=None,
                 source_file=None):
        if not name:
            raise DexError("class name must be non-empty")
        self.name = name
        self.superclass = superclass
        self.interfaces = list(interfaces or [])
        self.flags = AccessFlag(flags)
        self.fields = list(fields or [])
        self.methods = list(methods or [])
        self.source_file = source_file or (name.rsplit(".", 1)[-1] + ".java")

    @property
    def package(self):
        """The Java package of this class ('' for the default package)."""
        if "." not in self.name:
            return ""
        return self.name.rsplit(".", 1)[0]

    @property
    def simple_name(self):
        return self.name.rsplit(".", 1)[-1]

    def method(self, name, descriptor=None):
        """Return the first method matching ``name`` (and descriptor if given)."""
        for method in self.methods:
            if method.name != name:
                continue
            if descriptor is not None and method.descriptor != descriptor:
                continue
            return method
        return None

    def method_ref(self, method):
        return MethodRef(self.name, method.name, method.descriptor)

    def __repr__(self):
        return "DexClass(%s extends %s, %d methods)" % (
            self.name, self.superclass, len(self.methods)
        )


class DexFile:
    """A container of classes, the unit stored as ``classes.dex`` in an APK."""

    def __init__(self, classes=None):
        self.classes = list(classes or [])
        self._by_name = None

    def add_class(self, dex_class):
        self.classes.append(dex_class)
        self._by_name = None

    def class_by_name(self, name):
        if self._by_name is None:
            self._by_name = {c.name: c for c in self.classes}
        return self._by_name.get(name)

    def iter_methods(self):
        """Yield (DexClass, DexMethod) pairs over every method."""
        for dex_class in self.classes:
            for method in dex_class.methods:
                yield dex_class, method

    def superclass_chain(self, name, limit=64):
        """Return the superclass chain of ``name`` within this file.

        The chain stops at classes not defined in the file (framework
        classes such as ``android.webkit.WebView``), whose name is still
        included as the final element.
        """
        chain = []
        current = name
        for _ in range(limit):
            dex_class = self.class_by_name(current)
            if dex_class is None:
                chain.append(current)
                return chain
            chain.append(current)
            if dex_class.superclass in (None, "java.lang.Object"):
                chain.append("java.lang.Object")
                return chain
            current = dex_class.superclass
        raise DexError("superclass chain too deep (cycle?) at %r" % name)

    def __len__(self):
        return len(self.classes)

    def __repr__(self):
        return "DexFile(%d classes)" % len(self.classes)
