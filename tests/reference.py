"""Reference oracles that the tests check the library against."""
from canm.errors import UsageError


def _latent_expansion(g, bidirected):
    """Children/parents maps of the DAG g with one fork node per bidirected
    pair (i, j)."""
    n = g.n
    pairs = sorted({tuple(sorted(p)) for p in bidirected})
    children = [[] for _ in range(n + len(pairs))]
    parents = [[] for _ in range(n + len(pairs))]
    for a, b in g.edges:
        children[a].append(b)
        parents[b].append(a)
    for k, (i, j) in enumerate(pairs):
        lat = n + k
        for dst in (i, j):
            children[lat].append(dst)
            parents[dst].append(lat)
    return children, parents


def d_separated(g, a: int, b: int, cond, bidirected=()) -> bool:
    """m-separation of a and b given cond in the DAG g plus the bidirected
    pairs, each read as a latent common-cause fork. Standard active-trail
    reachability."""
    cond = frozenset(int(v) for v in cond)
    if a == b:
        raise UsageError("a and b must differ")
    if a in cond or b in cond:
        raise UsageError("a and b must not be conditioned on")
    children, parents = _latent_expansion(g, bidirected)
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


def dataset_csv_text(ds) -> str:
    """The dataset CSV text, one ``f"{v:.17g}"`` per numpy value: the
    per-value formatter the block writer in ``scm.save_dataset`` replaced,
    kept to check that writer byte for byte."""
    header = ",".join([f"X{i + 1}" for i in range(ds.n)] + ["Y"])
    lines = [header]
    for row in ds.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def structural_function_values(fn, x):
    """``fn`` on the treatment matrix x with a fresh array per term: the
    formula ``scm.StructuralFunction.evaluate`` replaced with an in-place
    one, kept to check it bit for bit."""
    import numpy as np

    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.full(x.shape[0], fn.intercept)
    for p, c in fn.linear:
        out = out + c * x[:, p]
    for p, q, c in fn.pairwise:
        out = out + c * x[:, p] * x[:, q]
    return out


def pearson_scalar_p_value(xs, ys) -> float:
    """The scalar Pearson t-test p-value through ``scipy.stats.t.sf``: the
    formula ``independence.test_independence`` used before both Pearson
    paths moved to one ``scipy.special.stdtr`` kernel, kept to check that
    kernel bit for bit."""
    import numpy as np
    from scipy import stats

    r = float(np.corrcoef(xs, ys)[0, 1])
    df = len(xs) - 2
    r2 = min(r * r, 1.0 - 1e-15)
    t = abs(r) * np.sqrt(df / (1.0 - r2))
    return float(2.0 * stats.t.sf(t, df))


def strict_order_rows(raw) -> list:
    """The reachability closure of raw dependence rows, one Python-int
    bitset per node, less every mutually reachable pair: the per-round
    strict order that ``discovery`` replaced with a stacked one, kept to
    check it."""
    from canm.graph import bit_nodes, closure_rows

    reach = closure_rows(raw)
    return [row & ~sum(1 << b for b in bit_nodes(row) if reach[b] >> a & 1)
            for a, row in enumerate(reach)]


def fold_rounds(raws, n: int) -> list:
    """The learned rows of a discovery run folded one round at a time: each
    round's strict order, its reduction by ``graph.reduction_bits``, then
    the cycle guard over its edges in sorted order. The fold that
    ``discovery`` replaced with one over every round at once, kept to check
    it."""
    from canm.graph import bit_edges, closure_rows, reduction_bits

    learned, reach = [0] * n, [0] * n
    for raw in raws:
        for a, b in bit_edges(reduction_bits(strict_order_rows(raw))):
            if not (learned[a] >> b & 1 or reach[b] >> a & 1):
                learned[a] |= 1 << b
                reach = closure_rows(learned)
    return learned
