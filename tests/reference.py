"""Reference oracles that the tests check the library against."""
from canm.errors import UsageError
from canm.graph import Admg


def _latent_expansion(g: Admg):
    """Children/parents maps of the DAG with one fork node per bidirected pair."""
    n = g.dag.n
    total = n + len(g.bidirected)
    children = [[] for _ in range(total)]
    parents = [[] for _ in range(total)]
    for a, b in g.dag.edges:
        children[a].append(b)
        parents[b].append(a)
    for k, (i, j) in enumerate(sorted(g.bidirected)):
        lat = n + k
        for dst in (i, j):
            children[lat].append(dst)
            parents[dst].append(lat)
    return children, parents


def d_separated(g: Admg, a: int, b: int, cond) -> bool:
    """m-separation of a and b given cond, with bidirected edges read as
    latent common-cause forks. Standard active-trail reachability."""
    cond = frozenset(int(v) for v in cond)
    if a == b:
        raise UsageError("a and b must differ")
    if a in cond or b in cond:
        raise UsageError("a and b must not be conditioned on")
    children, parents = _latent_expansion(g)
    total = len(children)

    anc = set(cond)
    stack = list(cond)
    while stack:
        v = stack.pop()
        for p in parents[v]:
            if p not in anc:
                anc.add(p)
                stack.append(p)

    # states: (node, direction); direction True = arrived via an edge out of
    # the node (moving up), False = arrived via an edge into it (moving down)
    visited = set()
    stack = [(a, True)]
    while stack:
        v, up = stack.pop()
        if (v, up) in visited:
            continue
        visited.add((v, up))
        if v == b:
            return False
        if up and v not in cond:
            for p in parents[v]:
                stack.append((p, True))
            for c in children[v]:
                stack.append((c, False))
        elif not up:
            if v not in cond:
                for c in children[v]:
                    stack.append((c, False))
            if v in anc:
                for p in parents[v]:
                    stack.append((p, True))
    return True
