"""Control- and data-dependence analysis.

Data dependence comes from reaching definitions (def-use chains); control
dependence from the standard postdominator construction (Ferrante et al.):
node N is control dependent on branch B when B has successors X, Y with N
postdominating X but not B.  networkx supplies the immediate-dominator
computation on the reversed CFG.
"""

from __future__ import annotations

from ..cfront import astnodes as ast
from .cfg import CFG, CFGNode
from .fastpath import fast_enabled, immediate_dominators
from .reaching import Definition, ReachingDefinitions
from .symtab import Symbol


class DependenceAnalysis:
    def __init__(self, cfg: CFG, reaching: ReachingDefinitions | None = None):
        self.cfg = cfg
        self.reaching = reaching or ReachingDefinitions(cfg)
        self._control_deps: dict[int, set[int]] = {}
        self._used_cache: dict[int, set[Symbol]] = {}
        self._compute_control_dependence()

    # ---------------------------------------------------------------- data

    def data_dependences(self, node: CFGNode) -> list[Definition]:
        """Definitions that this node's uses depend on."""
        if node.stmt is None:
            return []
        used = self._used_symbols_of(node)
        out: list[Definition] = []
        for definition in self.reaching.reaching_in(node):
            if definition.symbol in used:
                out.append(definition)
        return out

    def def_use_chains(self) -> dict[Definition, list[CFGNode]]:
        """Map each definition to the CFG nodes that may use it."""
        chains: dict[Definition, list[CFGNode]] = {
            d: [] for d in self.reaching.definitions}
        for node in self.cfg.nodes:
            if node.stmt is None:
                continue
            used = self._used_symbols_of(node)
            for definition in self.reaching.reaching_in(node):
                if definition.symbol in used:
                    chains[definition].append(node)
        return chains

    def _used_symbols_of(self, node: CFGNode) -> set[Symbol]:
        """Symbols mentioned at a CFG node (memoized — statements are
        immutable for the lifetime of this analysis)."""
        found = self._used_cache.get(node.nid)
        if found is None:
            found = self._used_symbols(node.stmt)
            self._used_cache[node.nid] = found
        return found

    @staticmethod
    def _used_symbols(stmt: ast.Node) -> set[Symbol]:
        used: set[Symbol] = set()
        for node in stmt.walk():
            if isinstance(node, ast.Identifier) and node.symbol is not None:
                used.add(node.symbol)
        return used

    # ------------------------------------------------------------- control

    def _compute_control_dependence(self) -> None:
        ipdom = self._postdominators_fast() if fast_enabled() \
            else self._postdominators_networkx()
        deps: dict[int, set[int]] = {n.nid: set() for n in self.cfg.nodes}
        for branch in self.cfg.nodes:
            if len(branch.succs) < 2:
                continue
            for succ in branch.succs:
                # Walk the postdominator tree from succ up to (but not
                # including) ipdom(branch); everything on the way is
                # control dependent on branch.
                runner = succ.nid
                stop = ipdom.get(branch.nid)
                while runner is not None and runner != stop:
                    if runner != branch.nid:
                        deps[runner].add(branch.nid)
                    nxt = ipdom.get(runner)
                    if nxt == runner:
                        break
                    runner = nxt
        self._control_deps = deps

    def _postdominators_networkx(self) -> dict[int, int]:
        """Reference postdominator pass (immediate dominators of the
        reversed CFG, via networkx)."""
        import networkx as nx

        graph = nx.DiGraph()
        for node in self.cfg.nodes:
            graph.add_node(node.nid)
        for node in self.cfg.nodes:
            for succ in node.succs:
                graph.add_edge(node.nid, succ.nid)
        # Postdominators = dominators of the reversed graph from exit.
        reverse = graph.reverse(copy=True)
        exit_id = self.cfg.exit.nid
        if exit_id not in reverse or \
                not nx.has_path(reverse, exit_id, self.cfg.entry.nid):
            # Pathological CFG (e.g. infinite loop with no exit edge):
            # connect unreachable nodes to keep the computation total.
            for node in self.cfg.nodes:
                if not nx.has_path(reverse, exit_id, node.nid):
                    reverse.add_edge(exit_id, node.nid)
        return nx.immediate_dominators(reverse, exit_id)

    def _postdominators_fast(self) -> dict[int, int]:
        """Cooper–Harvey–Kennedy postdominators over the CFG's own
        adjacency arrays.  Dominator trees are unique, so this returns
        exactly what the networkx pass returns — including the same
        patching of nodes that cannot reach the exit.
        """
        cfg = self.cfg
        n = len(cfg.nodes)
        exit_id = cfg.exit.nid
        # The reversed graph: successors = CFG predecessors.
        succs = [list(ids) for ids in cfg.pred_ids()]
        preds = [list(ids) for ids in cfg.succ_ids()]

        def reachable_from_exit() -> bytearray:
            seen = bytearray(n)
            seen[exit_id] = 1
            stack = [exit_id]
            while stack:
                for nxt in succs[stack.pop()]:
                    if not seen[nxt]:
                        seen[nxt] = 1
                        stack.append(nxt)
            return seen

        seen = reachable_from_exit()
        if not seen[cfg.entry.nid]:
            # Same patch rule as the reference pass: connect every node
            # the exit cannot reach (in the reversed graph) directly to
            # the exit, then recompute reachability.
            for nid in range(n):
                if not seen[nid]:
                    succs[exit_id].append(nid)
                    preds[nid].append(exit_id)
        return immediate_dominators(n, exit_id, preds, succs)

    def control_dependencies(self, node: CFGNode) -> set[CFGNode]:
        """Branch nodes this node is control dependent on."""
        return {self.cfg.nodes[nid]
                for nid in self._control_deps.get(node.nid, set())}

    def is_control_dependent(self, node: CFGNode, branch: CFGNode) -> bool:
        return branch.nid in self._control_deps.get(node.nid, set())
