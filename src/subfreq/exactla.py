"""Exact linear algebra over the rationals, in numpy and Python ints.

`kernel_basis` eliminates modulo primes below 2^31 in int64, combines the
primes by the Chinese remainder theorem, reads the rationals back by
rational reconstruction (von zur Gathen & Gerhard, *Modern Computer
Algebra*, 3rd ed. 2013, section 5.10) and certifies A V = 0 exactly.
`det` (Bareiss) and `pfaffian_form` (Pf(sum_l t_l J_l) as a form in t)
compute on the integers of `cleared`; `count_real_roots` (a Sturm chain)
divides, in Fractions.
"""

from fractions import Fraction
from math import isqrt, lcm
from operator import ne

import numpy as np

from .errors import IntegerOverflow, PrimesExhausted


def to_fraction(x, name="the value"):
    """Convert ints, Fractions, "p/q" strings, and floats to Fraction; a float
    reads as the decimal it prints as (0.1 is 1/10, 1e-13 is 1/10^13).  The
    error of any other x ("1/0", "abc", a list) names it: `name` is x."""
    if isinstance(x, Fraction):
        return x
    try:
        if isinstance(x, (int, str, float)):
            return Fraction(repr(x) if isinstance(x, float) else x)
        raise TypeError(f"cannot convert {type(x).__name__} to Fraction")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise type(exc)(f"{name} is {x!r}: {exc}") from exc


def cleared(rows):
    """(d, d A): the least common denominator d of the entries of the matrix
    A = rows (as read by `to_fraction`) and d A, as lists of Python ints."""
    rows = [[to_fraction(x) for x in row] for row in rows]
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


# The largest primes below 2^31, so that a product of two residues stays
# below 2^62; `kernel_basis` raises PrimesExhausted past the last one.
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543,
          2147483497, 2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323,
          2147483269, 2147483249, 2147483237, 2147483179, 2147483171, 2147483137, 2147483123)


def _rref_mod(a, p):
    """The pivot columns (taken in column order), the free columns and
    -R[pivots, free] mod p of the reduced row echelon form R of a mod p."""
    r, pivots = a % p, []
    for c in range(a.shape[1]):
        rank = len(pivots)
        below = np.flatnonzero(r[rank:, c])
        if not below.size:
            continue
        r[[rank, rank + below[0]]] = r[[rank + below[0], rank]]
        r[rank, c:] = r[rank, c:] * pow(int(r[rank, c]), -1, p) % p
        hit = np.flatnonzero(r[:, c])
        hit = hit[hit != rank]
        r[hit, c:] = (r[hit, c:] - r[hit, c, None] * r[rank, c:]) % p
        pivots.append(c)
    free = np.setdiff1d(np.arange(a.shape[1]), pivots)
    return tuple(pivots), free, -r[:len(pivots), free] % p


def _reconstruct(x, modulus):
    """n, d and a mask of success with n / d = x mod modulus and |n|, 0 < d
    at most sqrt(modulus / 2): the extended Euclidean algorithm stopped
    halfway, elementwise (its t stay below sqrt(2 modulus))."""
    bound, shape, x = isqrt(modulus // 2), x.shape, x.ravel()
    r0, r1, t0, t1 = np.full_like(x, modulus), x.copy(), np.zeros_like(x), np.ones_like(x)
    live = np.flatnonzero(r1 > bound)
    while live.size:
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        t0[live], t1[live] = t1[live], t0[live] - q * t1[live]
        live = live[r1[live] > bound]
    num, den = (np.where(t1 < 0, -y, y).reshape(shape) for y in (r1, t1))
    return num, den, (den <= bound) & (np.gcd(num, den) == 1)


def _primitive(num, den):
    """The vectors num / den (pivot rows) with 1 at their free column, scaled
    to coprime integers with the first nonzero entry positive: the pivot
    rows and the free entries.  Python ints when int64 could overflow."""
    if lcm(*np.unique(den).tolist()) >= 2 ** 31:
        num, den = num.astype(object), den.astype(object)
    scale = np.lcm.reduce(den, axis=0, initial=1)
    w = num * (scale // den)
    g = np.gcd(np.gcd.reduce(w, axis=0, initial=0), scale)
    first = w[(w != 0).argmax(axis=0), np.arange(w.shape[1])] if len(w) else scale
    g = np.where(first < 0, -g, g)
    return w // g, scale // g


def _certified(a, v):
    """Whether a v = 0, summed over the nonzero entries of a row by row
    (no BLAS, so no thread start-up): in int64 while the bound
    max|a| max|v| ncols is below 2^62, else in Python ints."""
    i, j = np.nonzero(a)
    if not i.size:
        return True
    starts = np.flatnonzero(np.r_[True, i[1:] != i[:-1]])
    bound = int(np.abs(a).max()) * int(np.abs(v).max(initial=0)) * a.shape[1]
    dtype = np.int64 if bound < 2 ** 62 else object
    return not np.add.reduceat(a[i, j, None].astype(dtype, copy=False)
                               * v[j].astype(dtype, copy=False), starts).any()


def kernel_basis(rows, ncols):
    """Basis of the null space of the integer matrix `rows` (len(rows) rows
    of ncols ints, as lists or a 2-D int64 array), as sparse primitive
    integer vectors {column: int} (coprime Python ints): one per free column
    of the reduced matrix, in increasing column order, its first nonzero
    entry positive.

    A certified vector whose last nonzero entry is a free column f mod p
    shows f free over QQ, so the free columns and the basis are the rational
    ones.  A prime with fewer or later pivots than the best so far is
    skipped, one with more or earlier pivots restarts the combination.
    Raises IntegerOverflow for entries outside int64 and PrimesExhausted
    when no combination of PRIMES is certified.
    """
    try:
        a = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    except OverflowError as exc:
        raise IntegerOverflow("kernel_basis needs matrix entries inside int64") from exc
    pivots = None
    for p in PRIMES:
        found, free, x = _rref_mod(a, p)
        if pivots is None or (len(found), pivots) > (len(pivots), found):
            pivots, modulus, residues = found, p, x
        elif found != pivots:
            continue
        else:  # Chinese remainders, in Python ints once the modulus passes 2^62
            step = (x - residues % p) % p * pow(modulus % p, -1, p) % p
            if modulus * p >= 2 ** 62:
                residues, step = residues.astype(object), step.astype(object)
            residues, modulus = residues + modulus * step, modulus * p
        num, den, ok = _reconstruct(residues, modulus)
        if not ok.all():
            continue
        w, scale = _primitive(num, den)
        v = np.zeros((ncols, len(free)), dtype=w.dtype)
        v[list(pivots)], v[free, np.arange(len(free))] = w, scale
        if _certified(a, v):
            vecs, cols = np.nonzero(v.T)  # the nonzero entries, vector by vector
            ends = np.searchsorted(vecs, np.arange(len(free) + 1)).tolist()
            cols, values = cols.tolist(), v[cols, vecs].tolist()
            return [dict(zip(cols[s:e], values[s:e])) for s, e in zip(ends, ends[1:])]
    raise PrimesExhausted(f"no kernel certified after {len(PRIMES)} primes")


def det(rows):
    """Exact determinant det(d A) / d^n of a square matrix A (d A from
    `cleared`), by Bareiss's elimination: each step divides exactly by the
    previous pivot."""
    (d, a), sign, previous = cleared(rows), 1, 1
    for k in range(len(a) - 1):
        swap = next((i for i in range(k, len(a)) if a[i][k]), None)
        if swap is None:
            return Fraction(0)
        if swap != k:
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            a[i] = [(x * a[k][k] - a[i][k] * y) // previous for x, y in zip(a[i], a[k])]
        previous = a[k][k]
    return Fraction(sign * a[-1][-1] if a else 1, d ** len(a))


def count_real_roots(f):
    """The number of distinct real roots of f (coefficients highest degree
    first, f[0] != 0), by Sturm's theorem: the sign changes of the chain
    f, f', -rem(f, f'), ... at -inf minus those at +inf."""
    chain = [f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]]
    while chain[-1]:
        g, h = chain[-2], chain[-1]
        while g and (len(g) >= len(h) or not g[0]):  # g mod h, leading zeros dropped
            g = [x - g[0] / h[0] * y for x, y in zip(g[1:], h[1:] + [0] * (len(g) - len(h)))]
        chain.append([-x for x in g])
    plus = [(p[0] > 0) - (p[0] < 0) for p in chain[:-1]]
    minus = [s * (-1) ** (len(p) - 1) for s, p in zip(plus, chain)]
    return sum(map(ne, minus, minus[1:])) - sum(map(ne, plus, plus[1:]))


def pfaffian_form(mats):
    """Pf(J(t)) for J(t) = sum_l t_l mats[l], skew-symmetric m x m rational
    matrices, as the form {exponents of t: Fraction} of degree m/2; {} when
    it vanishes identically, as for every odd m.  det J(t) = Pf(J(t))^2.
    Expanded in the integers d J_l of `cleared`: Pf(d J) = d^(m/2) Pf(J)."""
    (d, rows), m = cleared([row for mat in mats for row in mat]), len(mats[0])
    steps = [(m // 2 + 1) ** l for l in range(len(mats))]  # t^e is keyed sum_l e_l steps[l]
    form = _pfaffian([(rows[m * l:m * l + m], step) for l, step in enumerate(steps)],
                     tuple(range(m)), {})
    return {tuple(e // step % (m // 2 + 1) for step in steps): Fraction(v, d ** (m // 2))
            for e, v in form.items()}


def _pfaffian(mats, index, memo):
    """The form of the block on `index`, expanded along its first row:
    Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows and columns 0 and j),
    memoised on the remaining indices; `mats` pairs each J_l with its step."""
    if not index:
        return {0: 1}
    if index not in memo:
        first, rest, total = index[0], index[1:], {}
        for pos, j in enumerate(rest):
            minor = _pfaffian(mats, rest[:pos] + rest[pos + 1:], memo)
            for mat, step in mats:
                c = -mat[first][j] if pos % 2 else mat[first][j]
                if not c:
                    continue
                for e, v in minor.items():
                    total[e + step] = total.get(e + step, 0) + c * v
        memo[index] = {e: v for e, v in total.items() if v}
    return memo[index]
