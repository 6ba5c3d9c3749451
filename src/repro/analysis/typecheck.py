"""Type analysis: annotate every expression with its C type.

Runs after name binding.  Algorithm 1 of the paper branches on
``TYPE(B) is ArrayType`` / ``TYPE(B) is PointerType``; those questions are
answered from the ``ctype`` attribute this pass fills in.

The checker is deliberately permissive (legacy C is full of sloppy
conversions): when it cannot type an expression it assigns ``int`` rather
than failing, but it records a diagnostic so tests can assert on clean
programs.
"""

from __future__ import annotations

from ..cfront import astnodes as ast
from ..cfront.ctypes_model import (
    ArrayType, BOOL, CHAR, CHAR_PTR, CType, DOUBLE, EnumType, FloatType,
    FunctionType, INT, IntType, LONG, PointerType, SIZE_T, StructType,
    ULONG, VOID, VaListType, VOID_PTR, usual_arithmetic_conversions,
)


class TypeDiagnostic:
    def __init__(self, message: str, node: ast.Node):
        self.message = message
        self.node = node

    def __repr__(self) -> str:
        return f"TypeDiagnostic({self.message!r})"


class TypeChecker:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.diagnostics: list[TypeDiagnostic] = []

    def run(self) -> list[TypeDiagnostic]:
        # Function definitions are only ever top-level items.
        for item in self.unit.items:
            if isinstance(item, ast.FunctionDef):
                self._check_function(item)
        # Global initializers.
        for item in self.unit.items:
            if isinstance(item, ast.Declaration):
                for declarator in item.declarators:
                    if declarator.init is not None:
                        self._type_of(declarator.init)
        return self.diagnostics

    def _check_function(self, fn: ast.FunctionDef) -> None:
        for node in fn.body.walk():
            if isinstance(node, ast.Expression) and node.ctype is None:
                self._type_of(node)

    def _diag(self, message: str, node: ast.Node) -> None:
        self.diagnostics.append(TypeDiagnostic(message, node))

    # ------------------------------------------------------------- typing

    def _type_of(self, expr: ast.Expression) -> CType:
        if expr.ctype is not None:
            return expr.ctype
        ctype = self._compute(expr)
        expr.ctype = ctype
        return ctype

    def _compute(self, expr: ast.Expression) -> CType:
        if isinstance(expr, ast.IntLiteral):
            text = expr.text.lower()
            unsigned = "u" in text.split("x")[-1] if "x" in text \
                else "u" in text
            longish = expr.value > 0x7FFFFFFF or "l" in text.lstrip("0x")
            if longish:
                return ULONG if unsigned else LONG
            return IntType("int", signed=not unsigned)
        if isinstance(expr, ast.FloatLiteral):
            return DOUBLE
        if isinstance(expr, ast.CharLiteral):
            return INT         # char constants have type int in C
        if isinstance(expr, ast.StringLiteral):
            return ArrayType(CHAR, len(expr.value) + 1)
        if isinstance(expr, ast.Identifier):
            if expr.symbol is not None:
                return expr.symbol.ctype
            self._diag(f"use of unbound identifier {expr.name!r}", expr)
            return INT
        if isinstance(expr, ast.ArrayAccess):
            base = self._type_of(expr.base)
            self._type_of(expr.index)
            base = base.decay() if base.is_array else base
            if isinstance(base, PointerType):
                return base.pointee
            # index[array] form
            idx_t = expr.index.ctype
            if idx_t is not None and idx_t.is_array:
                return idx_t.element
            if idx_t is not None and idx_t.is_pointer:
                return idx_t.pointee
            self._diag("subscript of non-pointer", expr)
            return INT
        if isinstance(expr, ast.FieldAccess):
            base = self._type_of(expr.base)
            target = base
            if expr.arrow:
                if isinstance(base, PointerType):
                    target = base.pointee
                elif isinstance(base, ArrayType):
                    target = base.element
                else:
                    self._diag("-> on non-pointer", expr)
                    return INT
            if isinstance(target, StructType) and target.is_complete:
                try:
                    return target.member_type(expr.member)
                except KeyError:
                    self._diag(f"no member {expr.member!r} in {target}",
                               expr)
                    return INT
            self._diag(f"member access on non-struct {target}", expr)
            return INT
        if isinstance(expr, ast.Call):
            fn_type = self._callee_type(expr)
            for arg in expr.args:
                self._type_of(arg)
            if isinstance(fn_type, FunctionType):
                return fn_type.return_type
            return INT
        if isinstance(expr, ast.Unary):
            return self._unary_type(expr)
        if isinstance(expr, ast.Binary):
            return self._binary_type(expr)
        if isinstance(expr, ast.Assignment):
            lhs = self._type_of(expr.lhs)
            self._type_of(expr.rhs)
            return lhs.decay() if lhs.is_array else lhs
        if isinstance(expr, ast.Conditional):
            self._type_of(expr.cond)
            then_t = self._type_of(expr.then_expr)
            else_t = self._type_of(expr.else_expr)
            if then_t.is_arithmetic and else_t.is_arithmetic:
                return usual_arithmetic_conversions(then_t, else_t)
            then_d = then_t.decay()
            if then_d.is_pointer:
                return then_d
            return else_t.decay()
        if isinstance(expr, ast.Cast):
            self._type_of(expr.operand)
            return expr.target_type
        if isinstance(expr, (ast.SizeofExpr, ast.SizeofType)):
            if isinstance(expr, ast.SizeofExpr):
                self._type_of(expr.operand)
            return SIZE_T
        if isinstance(expr, ast.Comma):
            self._type_of(expr.lhs)
            return self._type_of(expr.rhs)
        if isinstance(expr, ast.InitList):
            for item in expr.items:
                self._type_of(item)
            return INT
        if isinstance(expr, ast.VaArg):
            self._type_of(expr.ap)
            return expr.target_type
        self._diag(f"cannot type {type(expr).__name__}", expr)
        return INT

    def _callee_type(self, call: ast.Call) -> CType:
        func = call.func
        fn_type = self._type_of(func)
        if isinstance(fn_type, PointerType) and \
                isinstance(fn_type.pointee, FunctionType):
            return fn_type.pointee
        return fn_type

    def _unary_type(self, expr: ast.Unary) -> CType:
        operand = self._type_of(expr.operand)
        op = expr.op
        if op == "&":
            if operand.is_array:
                # &arr has type T(*)[N]; modelled as pointer-to-element
                # aggregate, adequate for the analyses we run.
                return PointerType(operand)
            return PointerType(operand)
        if op == "*":
            decayed = operand.decay()
            if isinstance(decayed, PointerType):
                return decayed.pointee
            self._diag("dereference of non-pointer", expr)
            return INT
        if op == "!":
            return INT
        if op == "~":
            return operand if operand.is_integer else INT
        if op in ("++", "--"):
            return operand.decay() if operand.is_array else operand
        # unary + / -
        return operand if operand.is_arithmetic else INT

    def _binary_type(self, expr: ast.Binary) -> CType:
        lhs = self._type_of(expr.lhs).decay()
        rhs = self._type_of(expr.rhs).decay()
        op = expr.op
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return INT
        if op in ("+", "-"):
            if lhs.is_pointer and rhs.is_pointer and op == "-":
                return LONG        # ptrdiff_t
            if lhs.is_pointer:
                return lhs
            if rhs.is_pointer and op == "+":
                return rhs
        if op in ("<<", ">>"):
            from ..cfront.ctypes_model import integer_promote
            return integer_promote(lhs) if lhs.is_integer else INT
        if lhs.is_arithmetic and rhs.is_arithmetic:
            return usual_arithmetic_conversions(lhs, rhs)
        return INT


def typecheck(unit: ast.TranslationUnit) -> list[TypeDiagnostic]:
    """Annotate all expressions in a bound translation unit with types."""
    return TypeChecker(unit).run()
