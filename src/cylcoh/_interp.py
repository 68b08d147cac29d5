"""Separable interpolation and window integrals of sampled fields.

Point evaluation uses a cubic 4-point stencil per axis (one-sided at the
ends; the callers work on box charts, so no axis is periodic) so that
finite differences of interpolated quantities stay second-order
accurate; axes shorter than 4 nodes fall back to linear.  Every
whole-grid operation is one dense matrix per axis, applied axis by axis
(sum factorisation): the cubic stencils for evaluation at scaled points,
and window matrices for integrals over per-point intervals.  The window
matrices integrate the piecewise-linear interpolant, optionally against
a power-law factor or a power of the distance to each hat's own node,
exactly; this keeps the averaging pipeline exact on multilinear
coefficient fields.  One local rule builds every window row: each cell
the window overlaps adds its two hat integrals over the overlap alone
(GAUSS2, or for a law _pl_primitive and _pl_moment, a moment about the
overlap's own start), so a narrow window, or a law pivoting far past
the axis, is exact to rounding too.

K_y, A_alpha and C_integral share one stacked-operator path: node_blocks
splits their t-nodes into blocks whose stacked builds fit STACK_BYTES;
per block, each axis's matrices for every t-node come from one build
(scaled_axis_matrices, window_stack, or window_rows for A_alpha) and
serve every field; and every product is a matmul into a reused buffer
rather than a fresh array, mostly one axis_product (apply_axes chains
one per axis).  Every row is built on its own, so the blocking leaves
every value of A_alpha and C_integral unchanged.  K_y's stencils come
from one _axis_stencil call per axis and call (scaled_taps: each
(t-node, grid point)'s first node and weights), and each block fills
its matrices from them.  K_y takes the t-integral inside its last
product: per t-node, scaled_eval cuts the field to the nodes the
stencils reach on every axis, a view, applies the middle axes' stencils
and then the last axis's into that t-node's rows of one stack, and one
product of the block's axis-0 matrices, filled side by side into one
buffer, with the stack sums the block's t-nodes (sum factorisation over
t as well as space).  scaled_blocks splits K_y's t-nodes by the rows
each slab can take, so the stack, the axis-0 matrices and each other
axis's matrices fit STACK_BYTES; reblocking changes only the order of
that sum.  Every operator makes its buffers once per call and keeps
none between calls: K_y its taps, stack and axis-0 matrices, with its
output as its scratch grid, as A_alpha and the C-integral's search make
theirs.  One memo,
bounded by MEMO_BYTES and least recently used out first, keeps every
built window stack read-only: window_rows' for A_alpha, so charts that
share an axis build its rows once, and the C-integral's grid windows, so
a repeated constant builds only its refinement's.

Every weight norm of alpha, beta and gamma lives here too: weight_norm
over a box, a t-only profile's t_norm times the fiber measure, and a
full-grid weight's DomainSpec.norm of its samples, the one norm rule for
sampled fields.  t_norm takes a closed mass where there is one
(powerlaw_mass, on the window matrices' _pl_primitive), else
edge_integral: tanh-sinh pieces cut at 0 and at a profile's knots,
against a law singular at the right end, evaluated in chunks of pieces
whose arrays stay within CHUNK_BYTES.
Every quadrature rule is built once, read-only: gauss01 keeps one rule
per node count, and TANH_SINH is built at import.  So does the
package's one exponent rule (_exceeds, diverges), exact on p, q and
pbar as given and on a profile's lam at the binary value of its float.
_exceeds reads a law's mu as the integer pair _law_ratio forms, so a
caller that asks many exponents of one law forms that pair once: the
vanishing criterion's tail-law memo keeps it with each law, and
AdmissibleRegion forms 1/alpha and 1/beta when it is built.
"""

import functools
import math
from fractions import Fraction

import numpy as np

# byte budget of one stacked build of per-t-node axis matrices
STACK_BYTES = 4 << 20
# byte bound of each temporary of one chunk of edge_integral's pieces
CHUNK_BYTES = 16 << 10


@functools.cache
def gauss01(n):
    """Gauss-Legendre nodes and weights on (0, 1), read-only: built once
    per node count and shared by every later call."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return read_only((0.5 * (x + 1.0), 0.5 * w))


def read_only(rule):
    """Freeze the arrays of a quadrature rule built once for a module."""
    for arr in rule:
        arr.flags.writeable = False
    return rule


def tanh_sinh01(step, reach):
    """The tanh-sinh rule on (0, 1) at x_k = 1/(1 + exp(-pi sinh(k step)))
    for |k| <= reach, read-only.  The nodes are their distances from 0,
    so the nodes next to it keep their relative precision; the weight is
    step * pi cosh(k step) x_k (1 - x_k), with 1 - x_k = x_(-k)."""
    kh = step * np.arange(-reach, reach + 1)
    x = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(kh)))
    return read_only((x, step * np.pi * np.cosh(kh) * x * x[::-1]))


# exact to rounding on analytic pieces with algebraic ends or kinks there
TANH_SINH = tanh_sinh01(1.0 / 16.0, 60)
# window_matrix's rule, exact on its hat integrands of degree <= 3
GAUSS2 = gauss01(2)

# byte bound of memo, which holds every retained window matrix
MEMO_BYTES = 4 * STACK_BYTES
# memo's read-only arrays, least recently used first
_ROW_MEMO = {}


def node_blocks(count, node_bytes):
    """Consecutive slices of range(count), each a block of t-nodes whose
    stacked build fits in STACK_BYTES (one t-node per block at least):
    node_bytes is one byte count for every t-node or one per t-node."""
    blocks, start, held = [], 0, 0
    for i, size in enumerate(np.broadcast_to(node_bytes, (count,))):
        if i > start and held + size > STACK_BYTES:
            blocks.append(slice(start, i))
            start, held = i, 0
        held += size
    return blocks + [slice(start, count)] if count else blocks


def scaled_blocks(domain, nodes):
    """K_y's blocks of t-nodes, and the most slab rows one block stacks.

    A t-node's stencils along an axis of m nodes reach at most
    min(m, ceil(t (m - 1)) + 5) of them: the scaled points span t (m - 1)
    cells, a stencil start moves by at most one node per cell, and a
    stencil spans 4 nodes (one more for rounding).  So its slab takes at
    most that many rows of axis 0 times the other axes' nodes, and each
    block's stack of slabs and its side-by-side matrices of each axis
    (m rows each; axis 0's take the t-sum) fit STACK_BYTES.
    """
    t = np.asarray(nodes, dtype=float)
    reach = [np.minimum(m, np.ceil(t * (m - 1)) + 5).astype(int) for m in domain.grid]
    rest = math.prod(domain.grid[1:])
    node_bytes = 8 * np.max([reach[0] * rest] + [m * c for m, c in zip(domain.grid, reach)], axis=0)
    blocks = node_blocks(len(t), node_bytes)
    return blocks, max(int(reach[0][block].sum()) for block in blocks)


def _axis_stencil(domain, ax, coords):
    """Interpolation taps along one axis: (start, weights), shapes (n,) and
    (taps, n); tap r of coordinate i sits on node start[i] + r.

    Cubic Lagrange on 4 consecutive nodes where the axis allows it,
    otherwise the 2-point linear stencil; coords are clamped to the axis.
    """
    lo, hi = domain.bounds[ax]
    m = domain.grid[ax]
    h = domain.spacing(ax)
    u = (np.clip(np.asarray(coords, dtype=float), lo, hi) - lo) / h
    if m < 4:
        i = np.clip(u.astype(int), 0, m - 2)
        frac = u - i
        return i, np.stack([1.0 - frac, frac])
    start = np.clip(np.minimum(u.astype(int), m - 2) - 1, 0, m - 4)
    xi = u - start
    wts = np.stack([
        -(xi - 1.0) * (xi - 2.0) * (xi - 3.0) / 6.0,
        0.5 * xi * (xi - 2.0) * (xi - 3.0),
        -0.5 * xi * (xi - 1.0) * (xi - 3.0),
        xi * (xi - 1.0) * (xi - 2.0) / 6.0,
    ])
    return start, wts


def scaled_taps(domain, ax, y, nodes):
    """The stencils along ax at t*x_a + (1-t)*y[ax] for every t-node and
    grid point x_a, from one _axis_stencil call: (start, weights), shapes
    (len(nodes), m) and (taps, len(nodes), m).  K_y builds them once per
    axis and call, and fills each block's matrices from them
    (scaled_axis_matrices)."""
    xs = domain.axis_coords(ax)
    t = np.asarray(nodes, dtype=float)[:, None]
    start, wts = _axis_stencil(domain, ax, (t * xs + (1.0 - t) * y[ax]).ravel())
    return start.reshape(t.size, xs.size), wts.reshape(len(wts), t.size, xs.size)


def scaled_axis_matrices(taps, block, scale=None, out=None):
    """The interpolation matrices of the t-nodes in block, from their
    scaled_taps, side by side in one (m, sum of widths) matrix.

    Each t-node's matrix has one row per grid point, holding its stencil
    weights (times the t-node's entry of scale, if given) on the columns
    cols, the narrowest node range that any of that t-node's stencils
    touches; so mat @ v[cols] interpolates the node vector v at every
    scaled coordinate.  The side-by-side matrix fills out (flat, zeroed
    here) or a new array.  Returns it and one (mat, cols) per t-node, mat
    a view of its columns.
    """
    start, wts = taps[0][block], taps[1][:, block]
    lo = start.min(axis=1)
    width = start.max(axis=1) + len(wts) - lo
    ends = np.cumsum(width)
    m = start.shape[1]
    side = np.empty(m * ends[-1]) if out is None else out[: m * ends[-1]]
    side.fill(0.0)
    # each (t, x)'s first tap in side, flat; the taps of one row sit on
    # distinct nodes, and the t-nodes on disjoint columns, so each entry
    # is set once
    first = start + (ends - width - lo)[:, None] + np.arange(0, side.size, ends[-1])
    for r, w in enumerate(wts):
        side[first + r] = w if scale is None else w * scale[:, None]
    side = side.reshape(m, -1)
    return side, [(side[:, e - c : e], slice(a, a + c))
                  for a, c, e in zip(lo.tolist(), width.tolist(), ends.tolist())]


def axis_product(field, mat, ax, out, rotate=False):
    """One single-axis product: mat, with one column per node of axis ax,
    applied along axis ax of field as one matmul into the flat buffer out
    (never field's own memory).  The result, a view of out, keeps the
    axis order: axis 0 and the last axis take one matrix product over
    contiguous memory, a middle axis one batched product over the axes
    before it.  With rotate (ax = 0 only) the mapped axis moves to the
    end instead, so products on axis 0 in turn, one per axis, restore the
    axis order (apply_axes); each is one matrix product as well.
    """
    shape, m = field.shape, mat.shape[0]
    if rotate:
        flat = field.reshape(shape[0], -1).T
        buf = out[: flat.shape[0] * m].reshape(-1, m)
        return np.matmul(flat, mat.T, out=buf).reshape(shape[1:] + (m,))
    new = shape[:ax] + (m,) + shape[ax + 1 :]
    buf = out[: math.prod(new)]
    if ax == len(shape) - 1:
        return np.matmul(field.reshape(-1, shape[ax]), mat.T, out=buf.reshape(-1, m)).reshape(new)
    lead = math.prod(shape[:ax])
    return np.matmul(mat, field.reshape(lead, shape[ax], -1),
                     out=buf.reshape(lead, m, -1)).reshape(new)


def apply_axes(field, mats, work):
    """Apply one matrix per axis to field, axis by axis (sum factorisation).

    Each matrix has one column per node of its axis: an interpolation
    matrix from scaled_axis_matrices or a slice of a window_stack.  Each
    step is a rotating axis_product, so the axis order comes back after
    the last.  The products fill the flat buffers work[1] and work[0] in
    turn (field may sit in work[0], never in work[1]), so a call
    allocates no field-sized array; the result is a view of one of them,
    valid until the next call with the same work.
    """
    out = field
    for i, mat in enumerate(mats, 1):
        out = axis_product(out, mat, 0, work[i % 2], rotate=True)
    return out


def scaled_eval(field, mats, work):
    """One t-node's slab: the field interpolated at t*x_a + (1-t)*y_a on
    every axis a but 0, given the t-node's (mat, cols) per axis from
    scaled_axis_matrices.  Axis 0 stays cut down to the nodes cols[0], so
    the slab has shape (c0, m1, ..., m_last); mats[0]'s matrix applied
    along its axis 0 gives the values at t*x + (1-t)*y for every grid
    point x.

    The points fill the box t*D + (1-t)*y, so the products read only the
    nodes the stencils reach: field cut to cols on every axis, a view.
    The middle axes go first, each one axis_product batched over the axes
    before it, and the last axis last, as one product over the contiguous
    result.  Up to 3-D the first product reads the view in place: each
    batch is a strided 2-D block that BLAS takes without a copy.  The
    last product lands in the flat buffer work[0], which holds at least
    the slab; the others alternate with work[1], which holds at least the
    grid.  The slab is a view of work[0].
    """
    x = field[tuple(cols for _, cols in mats)]
    last = len(mats) - 1
    if not last:
        out = work[0][: x.size]
        out[...] = x
        return out
    for ax in range(1, last):
        x = axis_product(x, mats[ax][0], ax, work[(last - ax) % 2])
    return axis_product(x, mats[last][0], last, work[0])


def _ratio(x):
    """(num, den > 0) of an int, float, numpy scalar or Fraction, exactly."""
    try:
        return x.as_integer_ratio()
    except AttributeError:  # numpy integers
        return int(x), 1


def _frac(x):
    """Exact rational of x (see _ratio); a float inf stays inf."""
    if isinstance(x, Fraction) or isinstance(x, float) and math.isinf(x):
        return x
    return Fraction(*_ratio(x))


def law_exponent(lam, x):
    """lam * x exactly: the law (pivot - t)^(-lam) to the power x (q, p', r)."""
    return _frac(lam) * _frac(x)


def _law_ratio(mu):
    """mu as the (num, den) pair _exceeds reads: exact (see _ratio), and
    an infinite mu as (+-1, 0)."""
    try:
        return _ratio(mu)
    except OverflowError:  # an infinite mu
        return (1 if mu > 0 else -1), 0


def _exceeds(mu, exponent, m=0, pivot=None, reach=False):
    """The exponent rule: is mu*exponent - m*[pivot = 0], the exponent of
    |t|^m (pivot - t)^(-mu*exponent) at its pivot, > 1 (>= 1 with reach)?
    Exact, by integer cross-multiplication.  mu is the pair _law_ratio
    forms, once per law by the callers that ask many exponents of one
    law; exponent is (num, den > 0).  An infinite mu exceeds when it is
    positive."""
    num, den = mu
    if not den:
        return num > 0
    lhs, rhs = num * exponent[0], den * exponent[1]
    if m and pivot == 0:
        mn, md = _ratio(m)
        lhs, rhs = lhs * md, rhs * (md + mn)
    return lhs > rhs or reach and lhs == rhs


def diverges(e, pivot, hi, m=0):
    """int^hi |t|^m (pivot - t)^-e dt diverges: hi is the pivot and the
    exponent there is >= 1 (the vanishing conditions ask for > 1)."""
    return pivot == hi and _exceeds(_law_ratio(e), (1, 1), m, pivot, reach=True)


def _pl_primitive(left, gap, e):
    """int_(left-gap)^left u^(e-1) du for 0 <= gap <= left, elementwise
    (inf at gap = left is the divergent branch), as left^e (1 - (1 -
    gap/left)^e)/e by log1p and expm1: exact to rounding for any gap and
    for e near 0.  A zero gap gives 0, at left = 0 too (a zero-width cell
    at the pivot)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log1p(np.divide(-gap, left, out=np.zeros(np.shape(gap)), where=gap != 0))
        if e == 0.0:
            return -log_ratio
        return left**e * -np.expm1(e * log_ratio) / e


def powerlaw_mass(e, pivot, lo, hi, width=math.inf, m=0):
    """Heaviest integral of |s|^m (pivot - s)^-e over a window of length
    width in [lo, hi), exact; math.inf when it diverges.  width may be an
    array of lengths, one mass each.  At pivot 0, |s|^m = (0 - s)^m joins
    the law; at another pivot a finite mass with m != 0 is None
    (edge_integral takes that factor).  The heaviest window hugs hi when
    the law's exponent is > 0, else lo.
    """
    if not pivot >= hi:  # a NaN pivot fails too
        raise ValueError(f"power-law pivot {pivot:g} is below the end of [{lo:g}, {hi:g}): "
                         "the pivot must be the end or beyond")
    if diverges(e, pivot, hi, m):
        return math.inf
    if m and pivot != 0:
        return None
    e = _frac(e) - _frac(m)
    width = np.minimum(width, hi - lo)
    mass = _pl_primitive(pivot - hi + width if e > 0 else pivot - lo, width, float(1 - e))
    return mass if mass.ndim else float(mass)


def edge_integral(e, lo, hi, w, cuts=()):
    """int_lo^hi (hi - t)^-e w(t) dt for an exact e < 1 and a factor w of
    a 1-D array of t values, smooth on each piece between lo, 0, the cuts
    inside (lo, hi), and hi.  Every piece takes TANH_SINH, which keeps
    its accuracy at a kink or an algebraic singularity at a piece's end.
    The last piece takes it in u = (hi - t)^(1-e), which removes the
    law's edge singularity; the others fold the law into w.  1 - e is
    exact.  The pieces go to w in chunks whose arrays stay within
    CHUNK_BYTES, so a profile with hundreds of knots makes no temporary
    large enough for malloc to map it fresh; the chunk sums add in piece
    order, and a profile whose pieces fit one chunk takes a single sum."""
    ends = np.unique([lo, hi] + [c for c in (0.0, *cuts) if lo < c < hi])
    x, wts = TANH_SINH
    g = float(1 - _frac(e))
    big_u = (hi - ends[-2]) ** g
    width = np.diff(ends)[:-1, None]
    per = max(1, CHUNK_BYTES // (8 * x.size))
    total = 0.0
    for start in range(0, len(ends) - 1, per):
        stop = min(start + per, len(width))
        inner = ends[start:stop, None] + width[start:stop] * x
        t, scale = [inner.ravel()], [width[start:stop] * wts * (hi - inner) ** -float(e)]
        if start + per >= len(ends) - 1:  # the last piece, in u
            t.append(hi - (big_u * x) ** (1.0 / g))
            scale.append(big_u / g * wts[None])
        total += float((np.concatenate(scale, axis=None) * w(np.concatenate(t))).sum())
    return total


def linear_pieces(weight, lo, hi):
    """The breakpoints u in [lo, hi] of a constant or sampled-t profile,
    between which it is linear, and its values there."""
    knots = weight.tcoords if weight.kind == "sampled-t" else np.empty(0)
    u = np.union1d([lo, hi], knots[(knots > lo) & (knots < hi)])
    return u, weight.eval_t(u)


def t_norm(weight, q, lo, hi, moment_t=False, measure=1.0):
    """(measure int_lo^hi |w(t)|^q dt)^(1/q), or of t*w(t) with moment_t,
    for a t-only profile w: closed for a law's powerlaw_mass and for the
    mass (q = 1) of a piecewise-linear profile, else one edge_integral,
    cut at a sampled-t profile's knots, with a law's exponent kept where
    it pivots at hi.  q = inf gives the exact sup on [lo, hi], no moment."""
    if q == math.inf:
        if moment_t:
            raise ValueError("t_norm takes no t-moment at q = inf")
        if weight.kind != "powerlaw":
            return float(linear_pieces(weight, lo, hi)[1].max())
        powerlaw_mass(weight.lam, weight.pivot, lo, hi)  # the pivot check only
        end = hi if weight.lam > 0 else lo
        return math.inf if weight.pivot == end else float((weight.pivot - end) ** (-weight.lam))
    fq = float(q)
    e, law_at_hi = 0, False
    if weight.kind == "powerlaw":
        exponent = law_exponent(weight.lam, q)
        mass = powerlaw_mass(exponent, weight.pivot, lo, hi, m=q if moment_t else 0)
        if mass is not None:
            return float((measure * mass) ** (1.0 / fq))
        if weight.pivot == hi:
            e, law_at_hi = exponent, True
    elif q == 1 and not moment_t:
        u, v = linear_pieces(weight, lo, hi)
        return measure * float(np.diff(u) @ (v[1:] + v[:-1])) / 2.0

    def w(t):
        # a law at hi leaves only the t-moment's |t|^q (its mass is closed)
        vals = np.abs(t) ** fq if moment_t else 1.0
        return vals if law_at_hi else vals * weight.eval_t(t) ** fq

    cuts = weight.tcoords if weight.kind == "sampled-t" else ()
    return float((measure * edge_integral(e, lo, hi, w, cuts)) ** (1.0 / fq))


def weight_norm(weight, q, D):
    """||w||_{L^q(D)} of a weight on a box D: its mass at q = 1 and its
    sup at q = inf.  A t-only profile takes its t_norm on D's t-axis
    times the fiber measure; a full-grid sampled weight is D.norm of its
    samples."""
    if weight.t_only:
        fiber = math.prod(hi - lo for lo, hi in D.bounds[1:])
        return t_norm(weight, q, *D.bounds[0], measure=fiber)
    return D.norm(weight.sample_on(D), q)


def _pl_moment(far, gap, mu, whole):
    """int_0^gap v (far - v)^-mu dv for 0 <= gap <= far, elementwise: the
    first moment of a law over a cell's overlap [a, a + gap] about a, with
    far = pivot - a and whole = _pl_primitive(far, gap, 1 - mu).

    Where gap <= far/4 it is far^-mu gap^2 times the sum over k of
    (mu)_k / k! r^k / (k + 2), r = gap/far: the binomial series of
    (1 - v/far)^-mu integrated term by term, which forms no difference of
    near-equal integrals, so it is exact to rounding however far past the
    cell the pivot lies.  Its terms are taken (by Horner's rule) until they
    fall below rounding at the largest such r.  Where gap > far/4 it is
    far*whole - int (far - v)^(1-mu), which cancels by a factor of about
    2 far/gap, at most 8; where gap is 0 it is 0.
    """
    out = np.zeros_like(gap)
    wide = 4.0 * gap > far
    if wide.any():
        f = far[wide]
        out[wide] = f * whole[wide] - _pl_primitive(f, gap[wide], float(2 - mu))
    near = (gap > 0) & ~wide
    if near.any():
        f, g = far[near], gap[near]
        r = g / f
        mu, top = float(mu), float(r.max())
        # the sum is at least its k = 0 term 1/2, times (1 - r)^-mu if mu < 0
        tol = 2.0**-55 * (1.0 - top) ** max(-mu, 0.0)
        coefs, c, k = [0.5], 1.0, 0
        # past k = 2|mu| + 2 each term is at most 3/8 of the one before
        while k < 2.0 * abs(mu) + 2.0 or abs(c) * top**k > tol:
            c *= (mu + k) / (k + 1)
            k += 1
            coefs.append(c / (k + 2))
        total = np.full_like(r, coefs[-1])
        for coef in coefs[-2::-1]:
            total *= r
            total += coef
        out[near] = f**-mu * g * g * total
    return out


def window_matrix(domain, ax, lower, upper, weight=None):
    """The window integrals of the interpolant along one axis, as a matrix.

    Row r maps the node values along ax to the exact integral of
    weight(s) times their piecewise-linear interpolant over
    [lower[r], upper[r]], clamped to the axis.  weight is None (1),
    (mu, pivot) for (pivot - s)^-mu, or an int n: column i then takes
    (s - x_i)^n.  Each window is clipped to every cell [x_c, x_c + h],
    and the overlap [a, a + w] adds the integrals of the cell's two hats
    to columns c and c + 1, from a - x_c and w themselves: GAUSS2 for a
    polynomial weight (hat integrands of degree <= 3), _pl_primitive over
    the gap w for a law.  A row is a sum of local terms, so it is exact to
    rounding whatever the window's width.
    """
    xs = domain.axis_coords(ax)
    h = domain.spacing(ax)
    a = np.clip(np.asarray(lower, dtype=float)[:, None], xs[:-1], xs[1:])
    w = np.clip(np.asarray(upper, dtype=float)[:, None], xs[:-1], xs[1:])
    w -= a
    rows = np.zeros((len(a), xs.size))
    if isinstance(weight, tuple):
        mu, pivot = _frac(weight[0]), weight[1]
        far = pivot - a
        whole = _pl_primitive(far, w, float(1 - mu))
        up = _pl_moment(far, w, mu, whole)  # int (s - a) (pivot - s)^-mu ds
        a -= xs[:-1]  # the overlap's start in its cell
        up += a * whole
        up /= h
        rows[:, :-1] = whole - up
        rows[:, 1:] += up
    else:
        n = weight or 0
        a -= xs[:-1]  # the overlap's start in its cell
        for g, gw in zip(*GAUSS2):
            u = (a + w * g) / h  # the Gauss point in units of h from x_c
            rows[:, :-1] += gw * w * (1.0 - u) * (h * u) ** n
            rows[:, 1:] += gw * w * u * (h * (u - 1.0)) ** n
    return rows


def window_stack(domain, ax, lower, upper, weight=None):
    """window_matrix over (nodes, n) arrays of window ends, one build,
    stacked to shape (nodes, n, m): one n-row window matrix per t-node."""
    mats = window_matrix(domain, ax, lower.ravel(), upper.ravel(), weight)
    return mats.reshape(lower.shape + (-1,))


def _window_rows(domain, ax, t, cuts, vals):
    """window_rows' build: one window_stack per local moment and piece.
    About each hat's node x_i, w is w(x_i) + c1 (z - x_i); the local
    moments of (z - x_i)^n phi_i keep the rounding small where
    c1 = slope / (1-t) is large, near t = 1."""
    xs = domain.axis_coords(ax)
    dx = xs[:, None] - xs
    plain = lever = None
    for j in range(len(cuts) - 1):
        lower, upper = (t * xs + (1.0 - t) * c for c in cuts[j : j + 2])
        slope = (vals[j + 1] - vals[j]) / (cuts[j + 1] - cuts[j])
        coefs = [vals[j]]
        if slope:
            c1 = (slope / (1.0 - t))[..., None]
            coefs = [vals[j] + c1 * (xs - lower[..., None]), c1]
        rows = [window_stack(domain, ax, lower, upper, n) for n in (None, 1, 2)[: len(coefs) + 1]]
        for n, c in enumerate(coefs):
            term = dx * rows[n]
            term -= rows[n + 1]
            term *= c
            lever = term if lever is None else lever + term
            rows[n] *= c  # in place: the lever above was the last reader
            plain = rows[n] if plain is None else plain + rows[n]
    return plain, lever


def window_rows(domain, ax, t, cuts, vals):
    """Axis ax's rows for the t-nodes t, shape (nodes, 1), over the
    windows t*x_r + (1-t)*[cuts[0], cuts[-1]]: read-only (nodes, m, m)
    stacks (plain, lever) of the integrals of w(z) phi_i(z) and of
    (x_r - z) w(z) phi_i(z), for the hat phi_i of node x_i and w linear
    between the images of cuts, where it is vals.

    Built once per axis (lo, hi, m), t-node block and pieces (cuts,
    vals), and kept by memo.  The rows carry no factor of a form's degree
    or of the domain's volume, so charts that share an axis share its
    rows.
    """
    cuts, vals = np.asarray(cuts, dtype=float), np.asarray(vals, dtype=float)
    key = (_window_rows, domain.bounds[ax], domain.grid[ax], domain.periodic[ax],
           t.tobytes(), cuts.tobytes(), vals.tobytes())
    return memo(key, lambda: _window_rows(domain, ax, t, cuts, vals))


def memo(key, build):
    """The read-only tuple of arrays build() returns, kept in _ROW_MEMO
    under key within MEMO_BYTES, least recently used out first: a later
    call with the same key builds nothing.  Every retained window matrix
    is held here, so one bound covers them all."""
    arrays = _ROW_MEMO.pop(key, None)
    if arrays is None:
        arrays = read_only(build())
    _ROW_MEMO[key] = arrays
    while sum(a.nbytes for held in _ROW_MEMO.values() for a in held) > MEMO_BYTES:
        del _ROW_MEMO[next(iter(_ROW_MEMO))]
    return arrays
