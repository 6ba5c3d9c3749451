"""Name binding: scoped symbol tables and declaration/use resolution.

Binds every :class:`Identifier` to a :class:`Symbol`, and every declarator,
parameter, and function definition to the symbol it introduces.  STR's
preconditions ("the variable is locally declared", "not a function
parameter") are questions about these symbols.
"""

from __future__ import annotations

from ..cfront import astnodes as ast
from ..cfront.ctypes_model import CType, FunctionType

GLOBAL_SCOPE = 0


class Symbol:
    """One declared name."""

    __slots__ = ("name", "ctype", "kind", "scope_level", "decl_node",
                 "storage_class", "uid")

    _next_uid = 0

    def __init__(self, name: str, ctype: CType, kind: str, scope_level: int,
                 decl_node: ast.Node | None,
                 storage_class: str | None = None):
        self.name = name
        self.ctype = ctype
        self.kind = kind                   # 'var' | 'param' | 'func' | 'enum'
        self.scope_level = scope_level
        self.decl_node = decl_node
        self.storage_class = storage_class
        self.uid = Symbol._next_uid
        Symbol._next_uid += 1

    @property
    def is_global(self) -> bool:
        return self.scope_level == GLOBAL_SCOPE

    @property
    def is_local(self) -> bool:
        return self.kind == "var" and self.scope_level > GLOBAL_SCOPE

    @property
    def is_param(self) -> bool:
        return self.kind == "param"

    @property
    def is_function(self) -> bool:
        return self.kind == "func"

    def __repr__(self) -> str:
        return (f"Symbol({self.name!r}, {self.ctype}, {self.kind}, "
                f"level={self.scope_level})")

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other) -> bool:
        return self is other


class SymbolTable:
    """Result of binding one translation unit."""

    def __init__(self):
        self.globals: dict[str, Symbol] = {}
        self.functions: dict[str, Symbol] = {}
        # All symbols, in declaration order.
        self.all_symbols: list[Symbol] = []
        # Function name -> local/param symbols declared inside it.
        self.locals_of: dict[str, list[Symbol]] = {}


class _ScopeStack:
    def __init__(self):
        self.scopes: list[dict[str, Symbol]] = [{}]

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    @property
    def level(self) -> int:
        return len(self.scopes) - 1

    def declare(self, symbol: Symbol) -> None:
        self.scopes[-1][symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


class Binder:
    """Walks a translation unit, building scopes and binding identifiers."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.table = SymbolTable()
        self._scopes = _ScopeStack()
        self._current_function: ast.FunctionDef | None = None

    def bind(self) -> SymbolTable:
        """Bind the unit.  The declarations of a shared preamble are
        bound by the first unit that shares it, which saves the global
        scope they leave; later units start from copies of it, so every
        unit gets the same preamble symbols."""
        items = self.unit.items
        preamble = self.unit.preamble
        start = 0
        if preamble is not None:
            start = len(preamble.items)
            if preamble.bound is None:
                self._bind_items(items[:start])
                table = self.table
                preamble.bound = (dict(table.globals), dict(table.functions),
                                  list(table.all_symbols))
            else:
                globals_, functions, all_symbols = preamble.bound
                # At file scope the scope and the globals table hold the
                # same entries.
                self._scopes.scopes[0] = dict(globals_)
                self.table.globals = dict(globals_)
                self.table.functions = dict(functions)
                self.table.all_symbols = list(all_symbols)
        self._bind_items(items[start:])
        return self.table

    def _bind_items(self, items: list[ast.Node]) -> None:
        for item in items:
            if isinstance(item, ast.FunctionDef):
                self._bind_function(item)
            elif isinstance(item, ast.Declaration):
                self._bind_declaration(item)

    # ----------------------------------------------------------- internals

    def _new_symbol(self, name: str, ctype: CType, kind: str,
                    node: ast.Node | None,
                    storage: str | None = None) -> Symbol:
        symbol = Symbol(name, ctype, kind, self._scopes.level, node, storage)
        self._scopes.declare(symbol)
        self.table.all_symbols.append(symbol)
        if self._scopes.level == GLOBAL_SCOPE:
            self.table.globals[name] = symbol
            if kind == "func":
                self.table.functions[name] = symbol
        elif self._current_function is not None:
            self.table.locals_of.setdefault(
                self._current_function.name, []).append(symbol)
        return symbol

    def _bind_function(self, fn: ast.FunctionDef) -> None:
        existing = self._scopes.lookup(fn.name)
        if existing is not None and existing.is_function:
            symbol = existing
            symbol.decl_node = fn
        else:
            symbol = self._new_symbol(fn.name, fn.ctype, "func", fn,
                                      fn.storage_class)
        fn.symbol = symbol
        self._current_function = fn
        self._scopes.push()
        for param in fn.params:
            if param.name:
                psym = self._new_symbol(param.name, param.ctype, "param",
                                        param)
                param.symbol = psym
        self._bind_statement(fn.body, push_scope=False)
        self._scopes.pop()
        self._current_function = None

    def _bind_declaration(self, decl: ast.Declaration) -> None:
        if decl.is_typedef:
            return
        for declarator in decl.declarators:
            kind = "func" if isinstance(declarator.ctype, FunctionType) \
                else "var"
            existing = self._scopes.scopes[-1].get(declarator.name)
            if existing is not None and \
                    self._scopes.level == GLOBAL_SCOPE:
                # Redeclaration (e.g. extern then definition): reuse symbol.
                declarator.symbol = existing
            else:
                declarator.symbol = self._new_symbol(
                    declarator.name, declarator.ctype, kind, declarator,
                    decl.storage_class)
            if declarator.init is not None:
                self._bind_expression(declarator.init)

    def _bind_statement(self, stmt: ast.Node, *,
                        push_scope: bool = True) -> None:
        if isinstance(stmt, ast.CompoundStmt):
            if push_scope:
                self._scopes.push()
            for item in stmt.items:
                if isinstance(item, ast.Declaration):
                    self._bind_declaration(item)
                else:
                    self._bind_statement(item)
            if push_scope:
                self._scopes.pop()
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._bind_expression(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._bind_expression(stmt.cond)
            self._bind_statement(stmt.then_stmt)
            if stmt.else_stmt is not None:
                self._bind_statement(stmt.else_stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._bind_expression(stmt.cond)
            self._bind_statement(stmt.body)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._bind_statement(stmt.body)
            self._bind_expression(stmt.cond)
        elif isinstance(stmt, ast.ForStmt):
            self._scopes.push()
            if isinstance(stmt.init, ast.Declaration):
                self._bind_declaration(stmt.init)
            elif isinstance(stmt.init, ast.ExprStmt):
                self._bind_statement(stmt.init)
            if stmt.cond is not None:
                self._bind_expression(stmt.cond)
            if stmt.advance is not None:
                self._bind_expression(stmt.advance)
            self._bind_statement(stmt.body)
            self._scopes.pop()
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._bind_expression(stmt.value)
        elif isinstance(stmt, ast.SwitchStmt):
            self._bind_expression(stmt.cond)
            self._bind_statement(stmt.body)
        elif isinstance(stmt, ast.CaseStmt):
            self._bind_expression(stmt.value)
            self._bind_statement(stmt.body)
        elif isinstance(stmt, ast.DefaultStmt):
            self._bind_statement(stmt.body)
        elif isinstance(stmt, ast.LabelStmt):
            self._bind_statement(stmt.body)
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt,
                               ast.GotoStmt, ast.EmptyStmt)):
            pass
        elif isinstance(stmt, ast.Declaration):
            self._bind_declaration(stmt)

    def _bind_expression(self, expr: ast.Node) -> None:
        if isinstance(expr, ast.Identifier):
            symbol = self._scopes.lookup(expr.name)
            expr.symbol = symbol
            return
        if isinstance(expr, ast.FieldAccess):
            self._bind_expression(expr.base)
            return
        for child in expr.children():
            self._bind_expression(child)


def bind(unit: ast.TranslationUnit) -> SymbolTable:
    """Bind names in a translation unit; returns the symbol table."""
    return Binder(unit).bind()
