"""Integer polynomial arithmetic on plain dicts, for the test oracles.

A polynomial is a dict {exponent tuple: nonzero int}.  gtsystems.SparsePoly
has no arithmetic, so the oracles that add and multiply polynomials (the
Laplace determinant, the symbolic surface presentation, the cofactor times
x + y + z and the mutated Newton products) do it here, independently of
circulant_product.
"""


def variable(nvars, i):
    """The polynomial x_i in nvars variables."""
    return {tuple(int(k == i) for k in range(nvars)): 1}


def add(p, q, scale=1):
    """p + scale * q."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def mul(p, q):
    """p * q."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}
