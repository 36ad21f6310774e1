"""AST node types for the Java subset.

The pipeline consumes two things from parsed sources: the class hierarchy
(``extends`` plus import resolution, to find custom WebView subclasses) and
the method invocations inside bodies (to locate the classes that call
content-loading methods). The AST is therefore declaration-precise and
expression-pragmatic.
"""


class Node:
    """Base AST node with structural equality for tests."""

    _fields = ()

    def __eq__(self, other):
        return type(self) is type(other) and all(
            getattr(self, f) == getattr(other, f) for f in self._fields
        )

    def __repr__(self):
        inner = ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields
        )
        return "%s(%s)" % (type(self).__name__, inner)


# -- expressions --------------------------------------------------------------

class Literal(Node):
    """A string/char/int/float/bool/null literal."""

    _fields = ("value", "java_type")

    def __init__(self, value, java_type):
        self.value = value
        self.java_type = java_type


class Name(Node):
    """A possibly-qualified name: ``this``, ``webView``, ``a.b.c``."""

    _fields = ("parts",)

    def __init__(self, parts):
        if isinstance(parts, str):
            parts = parts.split(".")
        self.parts = list(parts)


class FieldAccess(Node):
    """``<target>.<name>`` where target is an expression."""

    _fields = ("target", "name")

    def __init__(self, target, name):
        self.target = target
        self.name = name


class MethodCall(Node):
    """``<target>.<name>(<args>)``; target is None for unqualified calls."""

    _fields = ("target", "name", "args")

    def __init__(self, target, name, args):
        self.target = target
        self.name = name
        self.args = list(args)


class New(Node):
    """``new Type(args)``."""

    _fields = ("type_name", "args")

    def __init__(self, type_name, args):
        self.type_name = type_name
        self.args = list(args)


class Cast(Node):
    """``(Type) expr``."""

    _fields = ("type_name", "expr")

    def __init__(self, type_name, expr):
        self.type_name = type_name
        self.expr = expr


class Assignment(Node):
    """``lhs = rhs`` (or compound assignment)."""

    _fields = ("lhs", "operator", "rhs")

    def __init__(self, lhs, operator, rhs):
        self.lhs = lhs
        self.operator = operator
        self.rhs = rhs


class Binary(Node):
    _fields = ("operator", "left", "right")

    def __init__(self, operator, left, right):
        self.operator = operator
        self.left = left
        self.right = right


class Unary(Node):
    _fields = ("operator", "operand")

    def __init__(self, operator, operand):
        self.operator = operator
        self.operand = operand


class ArrayAccess(Node):
    _fields = ("target", "index")

    def __init__(self, target, index):
        self.target = target
        self.index = index


class Ternary(Node):
    _fields = ("condition", "if_true", "if_false")

    def __init__(self, condition, if_true, if_false):
        self.condition = condition
        self.if_true = if_true
        self.if_false = if_false


# -- statements ----------------------------------------------------------------

class ExpressionStatement(Node):
    _fields = ("expr",)

    def __init__(self, expr):
        self.expr = expr


class LocalVariable(Node):
    """``Type name = init;``"""

    _fields = ("type_name", "name", "init")

    def __init__(self, type_name, name, init=None):
        self.type_name = type_name
        self.name = name
        self.init = init


class ReturnStatement(Node):
    _fields = ("expr",)

    def __init__(self, expr=None):
        self.expr = expr


class IfStatement(Node):
    _fields = ("condition", "then_body", "else_body")

    def __init__(self, condition, then_body, else_body=None):
        self.condition = condition
        self.then_body = list(then_body)
        self.else_body = list(else_body) if else_body is not None else None


class ThrowStatement(Node):
    _fields = ("expr",)

    def __init__(self, expr):
        self.expr = expr


# -- declarations ---------------------------------------------------------------

class FieldDecl(Node):
    _fields = ("modifiers", "type_name", "name")

    def __init__(self, modifiers, type_name, name):
        self.modifiers = list(modifiers)
        self.type_name = type_name
        self.name = name


class MethodDecl(Node):
    _fields = ("modifiers", "return_type", "name", "parameters", "body")

    def __init__(self, modifiers, return_type, name, parameters, body):
        self.modifiers = list(modifiers)
        self.return_type = return_type
        self.name = name
        self.parameters = list(parameters)  # (type_name, name) pairs
        self.body = list(body) if body is not None else None

    def walk_expressions(self):
        """Yield every expression in the body, depth-first."""
        if not self.body:
            return
        stack = list(self.body)
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if isinstance(node, (ExpressionStatement, ReturnStatement,
                                 ThrowStatement)):
                stack.append(node.expr)
                continue
            if isinstance(node, LocalVariable):
                stack.append(node.init)
                continue
            if isinstance(node, IfStatement):
                stack.append(node.condition)
                stack.extend(node.then_body)
                if node.else_body:
                    stack.extend(node.else_body)
                continue
            # Expression nodes.
            yield node
            if isinstance(node, MethodCall):
                stack.append(node.target)
                stack.extend(node.args)
            elif isinstance(node, New):
                stack.extend(node.args)
            elif isinstance(node, Assignment):
                stack.append(node.lhs)
                stack.append(node.rhs)
            elif isinstance(node, Binary):
                stack.append(node.left)
                stack.append(node.right)
            elif isinstance(node, Unary):
                stack.append(node.operand)
            elif isinstance(node, Cast):
                stack.append(node.expr)
            elif isinstance(node, FieldAccess):
                stack.append(node.target)
            elif isinstance(node, ArrayAccess):
                stack.append(node.target)
                stack.append(node.index)
            elif isinstance(node, Ternary):
                stack.append(node.condition)
                stack.append(node.if_true)
                stack.append(node.if_false)

    def method_calls(self):
        """Yield every :class:`MethodCall` in the body."""
        for expression in self.walk_expressions():
            if isinstance(expression, MethodCall):
                yield expression


class ClassDecl(Node):
    _fields = ("modifiers", "name", "extends", "implements", "fields",
               "methods", "is_interface", "inner_classes")

    def __init__(self, modifiers, name, extends=None, implements=None,
                 fields=None, methods=None, is_interface=False,
                 inner_classes=None):
        self.modifiers = list(modifiers)
        self.name = name
        self.extends = extends
        self.implements = list(implements or [])
        self.fields = list(fields or [])
        self.methods = list(methods or [])
        self.is_interface = is_interface
        self.inner_classes = list(inner_classes or [])


class CompilationUnit(Node):
    _fields = ("package", "imports", "types")

    def __init__(self, package, imports, types):
        self.package = package
        self.imports = list(imports)
        self.types = list(types)

    def resolve_type(self, simple_or_qualified):
        """Resolve a type name against imports and the package.

        ``WebView`` resolves to ``android.webkit.WebView`` when imported;
        already-qualified names pass through; otherwise the name is assumed
        to live in this compilation unit's package.
        """
        name = simple_or_qualified
        if "." in name:
            return name
        for imported in self.imports:
            if imported.endswith("." + name):
                return imported
        if self.package:
            return "%s.%s" % (self.package, name)
        return name
