"""Separable interpolation and window integrals of sampled fields.

Point evaluation uses a cubic 4-point stencil per axis (one-sided at the
ends; the callers work on box charts, so no axis is periodic) so that
finite differences of interpolated quantities stay second-order
accurate; axes shorter than 4 nodes fall back to linear.  Every
whole-grid operation is one dense matrix per axis, applied axis by axis
(sum factorisation): the cubic stencils for evaluation at scaled points,
and window matrices for integrals over per-point intervals.  The window
matrices integrate the piecewise-linear interpolant, optionally against
the coordinate or a power-law factor, exactly; this keeps the
uniform-weight averaging pipeline exact on multilinear coefficient
fields.

K_y, A_alpha and C_integral share one stacked-operator path: node_blocks
splits their t-nodes into blocks whose stacked builds fit STACK_BYTES;
per block, each axis's matrices for every t-node come from one build
(scaled_axis_matrices or window_stack) and serve every field; and
apply_axes applies them through a pair of reused buffers rather than
fresh arrays.  Every row is built on its own, so the blocking leaves
every value unchanged.

The power-law t-integrals of every weight norm live here too, on the
window matrices' closed form _pl_primitive: powerlaw_mass, the exact
heaviest-window mass with its symbolic divergence decisions for power
laws, and edge_integral, a rule for smooth factors against a law
singular at the right end.  Fixed rules are built once, read-only.
"""

import math

import numpy as np

EDGE_NODES = 128
# byte budget of one stacked build of per-t-node axis matrices
STACK_BYTES = 4 << 20


def gauss01(n):
    """Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


def read_only(rule):
    """Freeze the arrays of a quadrature rule built once for a module."""
    for arr in rule:
        arr.flags.writeable = False
    return rule


EDGE_RULE = read_only(gauss01(EDGE_NODES))


def node_blocks(count, node_bytes):
    """Consecutive slices of range(count), each a block of t-nodes whose
    stacked build, at node_bytes per t-node, fits in STACK_BYTES (one
    t-node per block at least)."""
    size = max(1, STACK_BYTES // node_bytes)
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _axis_locate(domain, ax, coords):
    """Per-axis cell index and fraction, clamped to the axis."""
    lo, hi = domain.bounds[ax]
    m = domain.grid[ax]
    h = domain.spacing(ax)
    c = np.asarray(coords, dtype=float)
    u = (np.clip(c, lo, hi) - lo) / h
    i = np.clip(u.astype(int), 0, m - 2)
    return i, i + 1, u - i


def _axis_stencil(domain, ax, coords):
    """Interpolation taps along one axis: (indices, weights), shape (taps, n).

    Cubic Lagrange on 4 consecutive nodes where the axis allows it,
    otherwise the 2-point linear stencil.
    """
    m = domain.grid[ax]
    if m < 4:
        i, ip1, frac = _axis_locate(domain, ax, coords)
        return np.stack([i, ip1]), np.stack([1.0 - frac, frac])
    lo, hi = domain.bounds[ax]
    h = domain.spacing(ax)
    c = np.asarray(coords, dtype=float)
    u = (np.clip(c, lo, hi) - lo) / h
    b = np.minimum(u.astype(int), m - 2)
    start = np.clip(b - 1, 0, m - 4)
    idx = np.stack([start + r for r in range(4)])
    xi = u - start
    wts = np.stack([
        -(xi - 1.0) * (xi - 2.0) * (xi - 3.0) / 6.0,
        0.5 * xi * (xi - 2.0) * (xi - 3.0),
        -0.5 * xi * (xi - 1.0) * (xi - 3.0),
        xi * (xi - 1.0) * (xi - 2.0) / 6.0,
    ])
    return idx, wts


def scaled_axis_matrices(domain, ax, y, nodes):
    """The interpolation along ax at t*x_a + (1-t)*y[ax], one matrix per t.

    The stencils of all t-nodes come from one _axis_stencil call on the
    (len(nodes), m) scaled coordinates.  Returns a list of (mat, cols),
    one per t in nodes: row r of mat holds the stencil weights of grid
    point r on the nodes in cols, the narrowest node range that any of
    that t-node's stencils touches, so mat @ v[cols] interpolates the
    node vector v at every scaled coordinate.
    """
    xs = domain.axis_coords(ax)
    t = np.asarray(nodes, dtype=float)[:, None]
    stencil = _axis_stencil(domain, ax, (t * xs + (1.0 - t) * y[ax]).ravel())
    # (taps, t-nodes * m) -> per t-node (taps, m)
    idx, wts = (a.reshape(len(a), -1, xs.size).swapaxes(0, 1) for a in stencil)
    rows = np.arange(xs.size)
    out = []
    for i, w in zip(idx, wts):
        lo = int(i.min())
        mat = np.zeros((xs.size, int(i.max()) + 1 - lo))
        # the taps of one row sit on distinct nodes, so each entry is set once
        mat[rows, i - lo] = w
        out.append((mat, slice(lo, lo + mat.shape[1])))
    return out


def apply_axes(field, mats, work):
    """Apply one matrix per axis to field, axis by axis (sum factorisation).

    Each matrix has one column per node of its axis: an interpolation
    matrix from scaled_axis_matrices or a slice of a window_stack.  The
    mapped axis moves to the end, so applying the matrices of all axes in
    turn restores the axis order, and each step is a single matrix
    product over contiguous memory.  The products fill the flat buffers
    work[1] and work[0] in turn (field may sit in work[0], never in
    work[1]), so a call allocates no field-sized array; the result is a
    view of one of them, valid until the next call with the same work.
    """
    out = field
    for i, mat in enumerate(mats, 1):
        flat = out.reshape(out.shape[0], -1).T
        buf = work[i % 2][: flat.shape[0] * mat.shape[0]].reshape(flat.shape[0], -1)
        out = np.matmul(flat, mat.T, out=buf).reshape(out.shape[1:] + (mat.shape[0],))
    return out


def scaled_eval(field, mats, work):
    """Field values at t*x + (1-t)*y for every grid point x, separably,
    given one t-node's (mat, cols) per axis from scaled_axis_matrices.

    The points fill the box t*D + (1-t)*y, so the field is first cut down
    to the nodes their stencils reach, into work[0]; apply_axes then costs
    about t times the full-grid products per axis.
    """
    crop = field[tuple(cols for _, cols in mats)]
    out = work[0][: crop.size].reshape(crop.shape)
    out[...] = crop
    return apply_axes(out, [mat for mat, _ in mats], work)


def _pl_primitive(left, right, e):
    """int_right^left u^(e-1) du, elementwise, tolerating zero endpoints
    in arrays (an infinite value just means the divergent branch was
    reached); float endpoints keep Python's pow."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if e == 0.0:
            return np.log(left) - np.log(right)
        return (left**e - right**e) / e


def powerlaw_mass(e, pivot, lo, hi, width=math.inf):
    """Heaviest integral of (pivot - s)^-e over a window of length width
    in [lo, hi), exact; math.inf when it diverges.

    The heaviest window hugs hi when e > 0, else lo; the mass diverges
    when it reaches the pivot and e >= 1.
    """
    if not pivot >= hi:  # a NaN pivot fails too
        raise ValueError(f"power-law pivot {pivot:g} is below the end of [{lo:g}, {hi:g}): "
                         "the pivot must be the end or beyond")
    width = min(width, hi - lo)
    if e > 0:
        left, right = pivot - hi + width, pivot - hi
    else:
        left, right = pivot - lo, pivot - lo - width
    if right == 0.0 and e >= 1.0:
        return math.inf
    return float(_pl_primitive(left, right, 1.0 - e))


def edge_integral(e, lo, hi, w):
    """int_lo^hi (hi - t)^-e w(t) dt for e < 1 and a smooth factor w of
    an array of t values: u = (hi - t)^(1-e) removes the edge
    singularity, so EDGE_RULE in u converges."""
    big_u = (hi - lo) ** (1.0 - e)
    nodes, wts = EDGE_RULE
    t = hi - (big_u * nodes) ** (1.0 / (1.0 - e))
    return big_u / (1.0 - e) * float((wts * w(t)).sum())


def _hat_integrals(domain, ax, i, theta, weight):
    """(int w*(1-u), int w*u) over the first fraction theta of cell i
    along ax: the weight w against the cell's two hat functions, with u
    the position in the cell in units of the spacing h."""
    h = domain.spacing(ax)
    x = domain.bounds[ax][0] + h * i
    if weight is None:
        whole = h * theta
        up = 0.5 * h * theta * theta
    elif weight == "moment":
        whole = h * theta * (x + 0.5 * h * theta)
        up = h * theta * theta * (0.5 * x + h * theta / 3.0)
    else:
        mu, piv = weight
        far, near = piv - x, piv - x - h * theta
        whole = _pl_primitive(far, near, 1.0 - mu)
        up = (far * whole - _pl_primitive(far, near, 2.0 - mu)) / h
    return whole - up, up


def window_matrix(domain, ax, lower, upper, weight=None):
    """The window integrals of the interpolant along one axis, as a matrix.

    Row r maps the node values along ax to the exact integral of
    weight(s) times their piecewise-linear interpolant over
    [lower[r], upper[r]].  weight is None (1), "moment" (the coordinate
    s) or (mu, pivot) for (pivot - s)^-mu.  Row i of the running matrix
    integrates from the axis lower bound to node i; each window end adds
    its partial cell to that row, so a window row holds only the cells it
    covers.
    """
    m = domain.grid[ax]
    cells = np.arange(m - 1)
    down, up = _hat_integrals(domain, ax, cells, 1.0, weight)
    running = np.zeros((m, m))
    running[cells + 1, cells] = down
    running[cells + 1, cells + 1] = up
    running = np.cumsum(running, axis=0)

    def antideriv(coords):
        i, ip1, theta = _axis_locate(domain, ax, coords)
        down, up = _hat_integrals(domain, ax, i, theta, weight)
        rows = running[i]
        r = np.arange(len(i))
        rows[r, i] += down
        rows[r, ip1] += up
        return rows

    return antideriv(upper) - antideriv(lower)


def window_stack(domain, ax, lower, upper, weight=None):
    """window_matrix over (nodes, n) arrays of window ends, one build,
    stacked to shape (nodes, n, m): one n-row window matrix per t-node."""
    mats = window_matrix(domain, ax, lower.ravel(), upper.ravel(), weight)
    return mats.reshape(lower.shape + (-1,))
