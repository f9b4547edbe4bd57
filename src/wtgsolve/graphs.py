"""Strongly connected components and reachability.  A graph maps a node to
an iterable of its successors; a successor need not be a key, and a node that
is not a key has none.  Both searches keep their own stack, so no graph is
too deep for them."""


def strongly_connected_components(succ) -> list[list]:
    """The strongly connected components of ``succ``, each emitted after
    every component it has an edge into (iterative Tarjan, 1972)."""
    # ``low`` holds only the nodes still on ``stack``; ``work`` is the search
    # path as (node, its unexplored successors, its place on ``stack``).
    index, low, stack, work, out = {}, {}, [], [], []

    def visit(v):
        index[v] = low[v] = len(index)
        work.append((v, iter(succ.get(v, ())), len(stack)))
        stack.append(v)

    for root in succ:
        if root not in index:
            visit(root)
        while work:
            v, successors, place = work[-1]
            for w in successors:
                if w not in index:
                    visit(w)
                    break
                if w in low:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    out.append(stack[place:])
                    del stack[place:]
                    for w in out[-1]:
                        del low[w]
    return out


def reachable(succ, roots) -> set:
    """The nodes reachable from ``roots`` along ``succ``, roots included."""
    seen, todo = set(roots), list(roots)
    while todo:
        new = set(succ.get(todo.pop(), ())) - seen
        seen |= new
        todo.extend(new)
    return seen
