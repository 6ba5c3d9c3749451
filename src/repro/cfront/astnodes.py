"""AST node classes.

Every node carries a :class:`SourceExtent` into the *preprocessed* source
text, which is the text the rewriter edits.  Nodes expose ``children()`` for
generic traversal and get ``parent`` pointers assigned by
:func:`set_parents`, which analyses and transformations rely on (e.g. "find
the statement enclosing this call expression").
"""

from __future__ import annotations

from typing import Iterator, Optional

from .source import SourceExtent


class Node:
    """Base class for all AST nodes."""

    __slots__ = ("extent", "parent", "_kids")

    _fields: tuple[str, ...] = ()

    def __init__(self, extent: SourceExtent):
        self.extent = extent
        self.parent: Optional[Node] = None
        # Cached child_list().  Safe because the tree is never structurally
        # mutated after parsing (transformations edit *text* and re-parse);
        # callers must not mutate the returned list.
        self._kids: Optional[list[Node]] = None

    def children(self) -> Iterator["Node"]:
        yield from self.child_list()

    def child_list(self) -> list["Node"]:
        """Child nodes as a list (the hot-path form of :meth:`children`).

        The returned list is cached on the node — treat it as read-only.
        """
        kids = self._kids
        if kids is None:
            kids = []
            append = kids.append
            for name in self._fields:
                value = getattr(self, name)
                if isinstance(value, Node):
                    append(value)
                elif isinstance(value, (list, tuple)):
                    for item in value:
                        if isinstance(item, Node):
                            append(item)
            self._kids = kids
        return kids

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree, including self."""
        stack = [self]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            yield node
            kids = node.child_list()
            if kids:
                extend(kids[::-1])

    def find_ancestor(self, *types: type) -> Optional["Node"]:
        node = self.parent
        while node is not None:
            if isinstance(node, types):
                return node
            node = node.parent
        return None

    def enclosing_statement(self) -> Optional["Statement"]:
        node: Node | None = self
        while node is not None and not isinstance(node, Statement):
            node = node.parent
        return node

    def enclosing_function(self) -> Optional["FunctionDef"]:
        found = self if isinstance(self, FunctionDef) \
            else self.find_ancestor(FunctionDef)
        return found

    def source_text(self, text: str) -> str:
        return text[self.extent.start:self.extent.end]

    def __repr__(self) -> str:
        name = type(self).__name__
        detail = getattr(self, "name", None) or getattr(self, "op", None) \
            or getattr(self, "value", None)
        if detail is not None:
            return f"{name}({detail!r})"
        return name


def set_parents(root: Node) -> None:
    """Assign ``parent`` pointers throughout the subtree rooted at ``root``."""
    stack = [root]
    pop = stack.pop
    extend = stack.extend
    while stack:
        node = pop()
        kids = node.child_list()
        for child in kids:
            child.parent = node
        if kids:
            extend(kids)


# ============================================================== expressions

class Expression(Node):
    __slots__ = ("ctype",)

    def __init__(self, extent: SourceExtent):
        super().__init__(extent)
        # Filled in by repro.analysis.typecheck.
        self.ctype = None


class IntLiteral(Expression):
    __slots__ = ("value", "text")
    _fields = ()

    def __init__(self, extent, value: int, text: str):
        super().__init__(extent)
        self.value = value
        self.text = text


class FloatLiteral(Expression):
    __slots__ = ("value", "text")

    def __init__(self, extent, value: float, text: str):
        super().__init__(extent)
        self.value = value
        self.text = text


class CharLiteral(Expression):
    __slots__ = ("value", "text")

    def __init__(self, extent, value: int, text: str):
        super().__init__(extent)
        self.value = value
        self.text = text


class StringLiteral(Expression):
    __slots__ = ("value", "text")

    def __init__(self, extent, value: bytes, text: str):
        super().__init__(extent)
        self.value = value      # decoded bytes, without the trailing NUL
        self.text = text        # original token text(s), including quotes


class Identifier(Expression):
    __slots__ = ("name", "symbol")

    def __init__(self, extent, name: str):
        super().__init__(extent)
        self.name = name
        # Bound by repro.analysis.symtab to a Symbol.
        self.symbol = None


class ArrayAccess(Expression):
    __slots__ = ("base", "index")
    _fields = ("base", "index")

    def __init__(self, extent, base: Expression, index: Expression):
        super().__init__(extent)
        self.base = base
        self.index = index


class FieldAccess(Expression):
    """``base.member`` or ``base->member`` (``arrow`` selects which)."""

    __slots__ = ("base", "member", "arrow")
    _fields = ("base",)

    def __init__(self, extent, base: Expression, member: str, arrow: bool):
        super().__init__(extent)
        self.base = base
        self.member = member
        self.arrow = arrow


class Call(Expression):
    __slots__ = ("func", "args")
    _fields = ("func", "args")

    def __init__(self, extent, func: Expression, args: list[Expression]):
        super().__init__(extent)
        self.func = func
        self.args = args

    @property
    def callee_name(self) -> str | None:
        return self.func.name if isinstance(self.func, Identifier) else None


class Unary(Expression):
    """Prefix (`-x`, `!x`, `*p`, `&x`, `++x`) or postfix (`x++`) operator."""

    __slots__ = ("op", "operand", "is_postfix")
    _fields = ("operand",)

    def __init__(self, extent, op: str, operand: Expression,
                 is_postfix: bool = False):
        super().__init__(extent)
        self.op = op
        self.operand = operand
        self.is_postfix = is_postfix


class Binary(Expression):
    __slots__ = ("op", "lhs", "rhs")
    _fields = ("lhs", "rhs")

    def __init__(self, extent, op: str, lhs: Expression, rhs: Expression):
        super().__init__(extent)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Assignment(Expression):
    """``lhs op rhs`` where op is '=', '+=', '-=', etc."""

    __slots__ = ("op", "lhs", "rhs")
    _fields = ("lhs", "rhs")

    def __init__(self, extent, op: str, lhs: Expression, rhs: Expression):
        super().__init__(extent)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Conditional(Expression):
    __slots__ = ("cond", "then_expr", "else_expr")
    _fields = ("cond", "then_expr", "else_expr")

    def __init__(self, extent, cond, then_expr, else_expr):
        super().__init__(extent)
        self.cond = cond
        self.then_expr = then_expr
        self.else_expr = else_expr


class Cast(Expression):
    __slots__ = ("target_type", "operand")
    _fields = ("operand",)

    def __init__(self, extent, target_type, operand: Expression):
        super().__init__(extent)
        self.target_type = target_type      # a CType
        self.operand = operand


class SizeofExpr(Expression):
    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, extent, operand: Expression):
        super().__init__(extent)
        self.operand = operand


class SizeofType(Expression):
    __slots__ = ("target_type",)

    def __init__(self, extent, target_type):
        super().__init__(extent)
        self.target_type = target_type


class Comma(Expression):
    __slots__ = ("lhs", "rhs")
    _fields = ("lhs", "rhs")

    def __init__(self, extent, lhs, rhs):
        super().__init__(extent)
        self.lhs = lhs
        self.rhs = rhs


class InitList(Expression):
    """A brace-enclosed initializer list ``{a, b, c}``."""

    __slots__ = ("items",)
    _fields = ("items",)

    def __init__(self, extent, items: list[Expression]):
        super().__init__(extent)
        self.items = items


class VaArg(Expression):
    """``__builtin_va_arg(ap, type)``."""

    __slots__ = ("ap", "target_type")
    _fields = ("ap",)

    def __init__(self, extent, ap: Expression, target_type):
        super().__init__(extent)
        self.ap = ap
        self.target_type = target_type


# =============================================================== statements

class Statement(Node):
    __slots__ = ()


class ExprStmt(Statement):
    __slots__ = ("expr",)
    _fields = ("expr",)

    def __init__(self, extent, expr: Expression | None):
        super().__init__(extent)
        self.expr = expr


class CompoundStmt(Statement):
    """A ``{ ... }`` block; items are Statements and Declarations."""

    __slots__ = ("items",)
    _fields = ("items",)

    def __init__(self, extent, items: list[Node]):
        super().__init__(extent)
        self.items = items


class IfStmt(Statement):
    __slots__ = ("cond", "then_stmt", "else_stmt")
    _fields = ("cond", "then_stmt", "else_stmt")

    def __init__(self, extent, cond, then_stmt, else_stmt):
        super().__init__(extent)
        self.cond = cond
        self.then_stmt = then_stmt
        self.else_stmt = else_stmt


class WhileStmt(Statement):
    __slots__ = ("cond", "body")
    _fields = ("cond", "body")

    def __init__(self, extent, cond, body):
        super().__init__(extent)
        self.cond = cond
        self.body = body


class DoWhileStmt(Statement):
    __slots__ = ("body", "cond")
    _fields = ("body", "cond")

    def __init__(self, extent, body, cond):
        super().__init__(extent)
        self.body = body
        self.cond = cond


class ForStmt(Statement):
    __slots__ = ("init", "cond", "advance", "body")
    _fields = ("init", "cond", "advance", "body")

    def __init__(self, extent, init, cond, advance, body):
        super().__init__(extent)
        self.init = init            # ExprStmt, Declaration, or None
        self.cond = cond
        self.advance = advance
        self.body = body


class ReturnStmt(Statement):
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, extent, value: Expression | None):
        super().__init__(extent)
        self.value = value


class BreakStmt(Statement):
    __slots__ = ()


class ContinueStmt(Statement):
    __slots__ = ()


class SwitchStmt(Statement):
    __slots__ = ("cond", "body")
    _fields = ("cond", "body")

    def __init__(self, extent, cond, body):
        super().__init__(extent)
        self.cond = cond
        self.body = body


class CaseStmt(Statement):
    __slots__ = ("value", "body")
    _fields = ("value", "body")

    def __init__(self, extent, value: Expression, body: Statement):
        super().__init__(extent)
        self.value = value
        self.body = body


class DefaultStmt(Statement):
    __slots__ = ("body",)
    _fields = ("body",)

    def __init__(self, extent, body: Statement):
        super().__init__(extent)
        self.body = body


class LabelStmt(Statement):
    __slots__ = ("name", "body")
    _fields = ("body",)

    def __init__(self, extent, name: str, body: Statement):
        super().__init__(extent)
        self.name = name
        self.body = body


class GotoStmt(Statement):
    __slots__ = ("label",)

    def __init__(self, extent, label: str):
        super().__init__(extent)
        self.label = label


class EmptyStmt(Statement):
    __slots__ = ()


# ============================================================= declarations

class Declarator(Node):
    """One declared name within a declaration, with its full type and init.

    ``name_extent`` covers just the identifier; ``extent`` covers the whole
    declarator including the initializer, which STR uses when rewriting
    declaration statements.
    """

    __slots__ = ("name", "ctype", "init", "name_extent", "symbol")
    _fields = ("init",)

    def __init__(self, extent, name: str, ctype, init: Expression | None,
                 name_extent: SourceExtent):
        super().__init__(extent)
        self.name = name
        self.ctype = ctype
        self.init = init
        self.name_extent = name_extent
        self.symbol = None


class Declaration(Node):
    """A declaration statement: specifiers plus a list of declarators."""

    __slots__ = ("declarators", "storage_class", "is_typedef", "base_type")
    _fields = ("declarators",)

    def __init__(self, extent, declarators: list[Declarator],
                 storage_class: str | None, is_typedef: bool, base_type):
        super().__init__(extent)
        self.declarators = declarators
        self.storage_class = storage_class      # 'static', 'extern', ...
        self.is_typedef = is_typedef
        self.base_type = base_type


class ParamDecl(Node):
    __slots__ = ("name", "ctype", "symbol")

    def __init__(self, extent, name: str | None, ctype):
        super().__init__(extent)
        self.name = name
        self.ctype = ctype
        self.symbol = None


class FunctionDef(Node):
    __slots__ = ("name", "ctype", "params", "body", "storage_class",
                 "name_extent", "symbol")
    _fields = ("params", "body")

    def __init__(self, extent, name: str, ctype, params: list[ParamDecl],
                 body: CompoundStmt, storage_class: str | None,
                 name_extent: SourceExtent):
        super().__init__(extent)
        self.name = name
        self.ctype = ctype                  # FunctionType
        self.params = params
        self.body = body
        self.storage_class = storage_class
        self.name_extent = name_extent
        self.symbol = None


class TranslationUnit(Node):
    # ``_vm_index`` caches the VM loader's (functions, globals) scan of
    # ``items`` — the differential oracle instantiates many interpreters
    # over the same parsed unit (see Interpreter._load_program).
    __slots__ = ("items", "filename", "preamble", "_vm_index")
    _fields = ("items",)

    def __init__(self, extent, items: list[Node], filename: str,
                 preamble=None):
        super().__init__(extent)
        self.items = items
        self.filename = filename
        # The repro.cfront.parser.Preamble whose declarations open
        # ``items``, shared with other units; None for a unit that
        # shares nothing.
        self.preamble = preamble
        self._vm_index = None

    def functions(self) -> list[FunctionDef]:
        return [item for item in self.items if isinstance(item, FunctionDef)]

    def function(self, name: str) -> FunctionDef | None:
        for item in self.items:
            if isinstance(item, FunctionDef) and item.name == name:
                return item
        return None
