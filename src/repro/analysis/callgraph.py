"""Static call graph over one translation unit.

Direct calls only (calls through function pointers are recorded as calls to
the special ``<indirect>`` node), which is what the interprocedural
"does-the-callee-write-my-buffer" check needs.
"""

from __future__ import annotations

from ..cfront import astnodes as ast

INDIRECT = "<indirect>"


class CallSite:
    __slots__ = ("caller", "callee", "call")

    def __init__(self, caller: str, callee: str, call: ast.Call):
        self.caller = caller
        self.callee = callee
        self.call = call

    def __repr__(self) -> str:
        return f"CallSite({self.caller} -> {self.callee})"


class CallGraph:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.defined: dict[str, ast.FunctionDef] = {
            fn.name: fn for fn in unit.functions()}
        self.calls_from: dict[str, list[CallSite]] = {}
        self.calls_to: dict[str, list[CallSite]] = {}
        self.sites: list[CallSite] = []
        self._build()

    def _build(self) -> None:
        for fn in self.unit.functions():
            for node in fn.body.walk():
                if not isinstance(node, ast.Call):
                    continue
                callee = node.callee_name or INDIRECT
                if callee != INDIRECT and \
                        isinstance(node.func, ast.Identifier) and \
                        node.func.symbol is not None and \
                        not node.func.symbol.is_function:
                    callee = INDIRECT       # call through a variable
                site = CallSite(fn.name, callee, node)
                self.sites.append(site)
                self.calls_from.setdefault(fn.name, []).append(site)
                self.calls_to.setdefault(callee, []).append(site)

    def callees(self, name: str) -> set[str]:
        return {site.callee for site in self.calls_from.get(name, ())}

    def callers(self, name: str) -> set[str]:
        return {site.caller for site in self.calls_to.get(name, ())}

    def transitive_callees(self, name: str) -> set[str]:
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for callee in self.callees(current):
                if callee not in seen:
                    seen.add(callee)
                    if callee in self.defined:
                        frontier.append(callee)
        return seen

    def is_recursive(self, name: str) -> bool:
        return name in self.transitive_callees(name)


def build_call_graph(unit: ast.TranslationUnit) -> CallGraph:
    return CallGraph(unit)
