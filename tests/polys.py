"""Reference algebra over coefficient tables, for the tests only.

Every polynomial qtab returns is a read-only table ``{(i, k): c}`` of its
nonzero coefficients c of p^i q^k.  The tests rebuild polynomials from their
definitions with ``add``, ``mul`` and ``swap``, which return plain dicts that
compare equal to the package's tables.  An integer argument stands for the
constant polynomial.  No command multiplies polynomials, so this algebra is
not part of the package.
"""


def _terms(poly):
    if isinstance(poly, int):
        return {(0, 0): poly} if poly else {}
    return poly


def add(*polys) -> dict:
    """The sum of the polynomials (0 for none)."""
    total = {}
    for poly in polys:
        for key, c in _terms(poly).items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def mul(*polys) -> dict:
    """The product of the polynomials (1 for none)."""
    product = {(0, 0): 1}
    for poly in polys:
        terms = {}
        for (i, k), c in product.items():
            for (i2, k2), c2 in _terms(poly).items():
                terms[i + i2, k + k2] = terms.get((i + i2, k + k2), 0) + c * c2
        product = {key: c for key, c in terms.items() if c}
    return product


def swap(poly) -> dict:
    """The polynomial with p and q exchanged."""
    return {(k, i): c for (i, k), c in _terms(poly).items()}
