"""Shared machinery for the analysis-core fast path.

The flow and pointer analyses each keep two interchangeable solvers: the
original reference implementation (kept for differential testing and
ablation) and a fast path with the same observable results.  The fast
path is on by default; ``REPRO_ANALYSIS_FAST=0`` selects the reference
solvers.  This module owns the switch plus the two graph kernels both
fast solvers share:

* an **iterative Tarjan/Nuutila SCC pass** over integer adjacency (no
  recursion, no networkx) used by the points-to solver's cycle
  collapsing, and
* an **iterative dominator computation** (Cooper–Harvey–Kennedy) used by
  the dependence analysis for postdominators on the reversed CFG.

Both kernels are deterministic: SCC representatives are the
minimum-index member (matching the reference solver's choice) and
dominators are unique by construction.
"""

from __future__ import annotations

from ..envknobs import bool_knob


def fast_enabled() -> bool:
    """Is the analysis fast path active?  On unless REPRO_ANALYSIS_FAST=0."""
    return bool_knob("REPRO_ANALYSIS_FAST", True)


# ------------------------------------------------------------------ SCC

def strongly_connected_components(num_nodes: int,
                                  successors) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative, over ``successors(v) -> iterable``.

    Only components with two or more members are returned (singletons are
    never collapsed); each is sorted ascending so callers can pick the
    minimum index as the representative, exactly as the reference
    points-to solver does.
    """
    index_of = [-1] * num_nodes       # discovery index, -1 = unvisited
    low = [0] * num_nodes
    on_stack = bytearray(num_nodes)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(num_nodes):
        if index_of[root] != -1:
            continue
        # Explicit DFS frames: (node, iterator over its successors).
        frames = [(root, iter(successors(root)))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while frames:
            node, succ_iter = frames[-1]
            advanced = False
            for succ in succ_iter:
                if index_of[succ] == -1:
                    index_of[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    frames.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if on_stack[succ] and low[node] > index_of[succ]:
                    low[node] = index_of[succ]
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                if low[parent] > low[node]:
                    low[parent] = low[node]
            if low[node] == index_of[node]:
                member = stack.pop()
                on_stack[member] = 0
                if member == node:
                    continue        # singleton — not collapsible
                scc = [member]
                while member != node:
                    member = stack.pop()
                    on_stack[member] = 0
                    scc.append(member)
                scc.sort()
                sccs.append(scc)
    return sccs


# ----------------------------------------------------------- dominators

def immediate_dominators(num_nodes: int, root: int,
                         preds: list[list[int]],
                         succs: list[list[int]]) -> dict[int, int]:
    """Cooper–Harvey–Kennedy immediate dominators from ``root``.

    Returns ``{node: idom}`` for every node reachable from ``root`` (with
    ``idom[root] == root``), matching the contract (and, dominator trees
    being unique, the results) of ``networkx.immediate_dominators``.
    """
    # Reverse postorder from root over succs.
    order: list[int] = []
    seen = bytearray(num_nodes)
    seen[root] = 1
    frames = [(root, iter(succs[root]))]
    while frames:
        node, it = frames[-1]
        advanced = False
        for nxt in it:
            if not seen[nxt]:
                seen[nxt] = 1
                frames.append((nxt, iter(succs[nxt])))
                advanced = True
                break
        if not advanced:
            frames.pop()
            order.append(node)
    order.reverse()                       # RPO, root first

    rpo_num = {node: i for i, node in enumerate(order)}
    idom = [-1] * num_nodes
    idom[root] = root

    def intersect(a: int, b: int) -> int:
        while a != b:
            while rpo_num[a] > rpo_num[b]:
                a = idom[a]
            while rpo_num[b] > rpo_num[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == root:
                continue
            new_idom = -1
            for pred in preds[node]:
                if not seen[pred] or idom[pred] == -1:
                    continue          # unreachable or not yet processed
                new_idom = pred if new_idom == -1 \
                    else intersect(pred, new_idom)
            if new_idom != -1 and idom[node] != new_idom:
                idom[node] = new_idom
                changed = True
    return {node: idom[node] for node in order if idom[node] != -1}


def iter_bits(bits: int):
    """Yield the set bit positions of ``bits``, lowest first.

    The isolate-lowest-bit loop runs in O(popcount) instead of
    O(bit-length), which matters when definition numbering is sparse.
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
