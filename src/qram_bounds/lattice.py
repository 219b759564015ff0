"""Exact dynamics of the isotropic harmonic lattice: dispersion, the
Lieb-Robinson and group velocities, the on-axis commutator signal, and
empirical light cones.

The lattice Hamiltonian is quadratic,

    H = sum_r [ P_r^2/(2m) + sum_{j<=nu} sum_beta (lam_j/2)
                (U(r) - U(r + j e_beta))^2 ],

so every quantity here is computed exactly (spectrally), with no state
truncation. One Cartesian displacement component is simulated; for the
isotropic couplings used here the components evolve independently and
identically. Periodic boundaries throughout.

The commutator of a unit q probe at the origin, evolved for a time t, and a
unit p probe at distance r is the scalar i c(t, r), with c(t, r) the (r, 0)
entry of cos(t sqrt(K/m)); its Weyl-operator norm is 2 |sin(c/2)|.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .params import checked_cap, checked_couplings, checked_index, checked_phase

_PEAK_NOISE_FLOOR = 1e-12   # commutator peaks below this count as "no signal"
_WORK_ENTRY_CAP = 20_000_000  # most entries of node rows, a time signal or a tile-built W
_BLOCK_BYTES = 1 << 19      # working-array budget per light-cone tile
_BLOCK_ROWS = 128           # time steps per light-cone block
_NODE_ERROR = 2.0 ** -56    # interpolation error bound per light-cone signal entry
_FOLD_COLUMNS = 48          # narrowest signal whose orbits fold into mirror pairs (it
                            # breaks even near 65 columns in 1D, 33-41 in 2D, 17-25 in 3D)


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeSpec:
    d: int                   # dimension, 1 | 2 | 3
    L: int                   # sites per axis (n_sites = L^d)
    lam: tuple[float, ...]   # couplings lam_1..lam_nu [kg/s^2]
    m: float                 # site mass [kg]

    def __post_init__(self):
        object.__setattr__(self, "lam",
                           checked_couplings(LatticeError, self.d, self.lam, self.m))
        weight = sum(max(4, j * j) * l for j, l in enumerate(self.lam, start=1))
        if not math.isfinite(self.d * weight / self.m):  # bounds omega^2, |grad omega|^2
            raise LatticeError("dispersion bound d*sum_j max(4, j^2)*lam_j/m "
                               f"overflows at lam={self.lam!r}, m={self.m!r}")
        if type(self.L) is not int or self.L < 1:
            raise LatticeError("L must be an int >= 1")

    @property
    def nu(self) -> int:
        return len(self.lam)

    @property
    def n_sites(self) -> int:
        return self.L ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d


def omega_squared(spec: LatticeSpec,
                  ks: Sequence[np.ndarray | float]) -> np.ndarray | float:
    """omega^2 = (4/m) sum_beta sum_j lam_j sin^2(j k_beta / 2).

    ``ks`` holds one wavevector component per axis (lattice units); array
    components broadcast against each other, so sparse meshgrid axes give
    the full grid.
    """
    w2 = 0.0
    for kb in ks:
        for j, lam in enumerate(spec.lam, start=1):
            w2 = w2 + 4.0 * lam * np.sin(j * kb / 2.0) ** 2
    return w2 / spec.m


def omega_max(spec: LatticeSpec) -> float:
    """The largest omega over the L^d mode grid k = 2 pi n / L, without
    the grid. omega^2 sums one nonnegative term per axis, so the maximum
    needs only the axis entries within rounding of the largest; combined
    with the grid's float operations, they give its maximum bit for bit."""
    k = 2.0 * np.pi * np.arange(spec.L) / spec.L
    axis = omega_squared(spec, [k])
    k = k[axis >= axis.max() * (1.0 - 1e-12)]
    grids = np.meshgrid(*([k] * spec.d), indexing="ij", sparse=True)
    return float(np.sqrt(omega_squared(spec, grids).max()))


def dispersion(spec: LatticeSpec, k: float | Sequence[float]) -> float:
    """omega(k) = sqrt((4/m) sum_beta sum_j lam_j sin^2(j k_beta / 2)),
    k in lattice units (components in (-pi, pi])."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if kv.shape != (spec.d,):
        raise LatticeError(f"wavevector must have {spec.d} component(s)")
    checked_phase(LatticeError, "j*k of the dispersion", spec.nu, np.abs(kv).max())
    return math.sqrt(omega_squared(spec, kv))


def second_moment(lam: Sequence[float]) -> float:
    """sum_j lam_j * j^2, the coupling weight of the long-wavelength limit,
    added left to right (as ``sum`` did before Python 3.12 compensated it)."""
    return functools.reduce(operator.add, (l * j * j for j, l in enumerate(lam, start=1)), 0)


def max_group_velocity(spec: LatticeSpec) -> float:
    """Supremum of |grad_k omega| over the Brillouin zone, sites/s: the
    long-wavelength speed sqrt(sum_j lam_j j^2 / m), whatever d.

    In 1D, omega omega' = (2/m) sum_j lam_j j s_j c_j with s_j, c_j =
    sin, cos(j k / 2), and omega^2 = (4/m) sum_j lam_j s_j^2; for lam_j >= 0
    Cauchy-Schwarz gives |d omega/dk| <= sqrt(sum_j lam_j j^2 c_j^2 / m).
    In d dimensions omega^2 = sum_b G(k_b), G the per-axis term, so
    |grad omega|^2 = sum_b G'(k_b)^2 / (4 sum_b G(k_b)); the 1D bound is
    G'^2 <= 4 G sum_j lam_j j^2 / m on each axis, so the same bound holds.
    Equality holds as k -> 0, so the bound is the supremum.
    """
    return math.sqrt(second_moment(spec.lam) / spec.m)


def physical_velocity(a: float, v: float, what: str) -> float:
    """a * v [m/s]; refuses a v [sites/s] whose a * v overflows."""
    if not math.isfinite(a * v):
        raise LatticeError(f"physical {what} overflows at a={a!r}")
    return a * v


def coupling_matrix(spec: LatticeSpec) -> np.ndarray:
    """Dense force matrix K with p_dot = -K q. K[s, t] = k((t - s) mod L),
    the circulant of the stencil k that the Hamiltonian's bonds give one
    site, added bond by bond (periodic wrap-around bonds accumulate)."""
    L, d = spec.L, spec.d
    stencil = np.zeros(spec.shape)
    origin = (0,) * d
    for axis in range(d):
        for j, lam in enumerate(spec.lam, start=1):
            for sign in (+1, -1):
                stencil[origin] += lam
                stencil[tuple(sign * j % L if b == axis else 0 for b in range(d))] -= lam
    offset = (np.arange(L) - np.arange(L)[:, None]) % L   # [s_b, t_b] = t_b - s_b
    index = [offset.reshape([L if a in (b, d + b) else 1 for a in range(2 * d)])
             for b in range(d)]
    return stencil[tuple(index)].reshape(spec.n_sites, spec.n_sites)


def lr_speed(d: int, lam: Sequence[float], m: float) -> float:
    """Commutator-growth speed limit 4 * sqrt(d * sum_j lam_j / m), lattice
    units (Nachtergaele, Raz, Schlein & Sims, CMP 286, 1073 (2009)). Where
    d * sum_j lam_j / m overflows the roots are taken apart; a speed past
    the float range is refused. The couplings are added left to right, as in
    ``second_moment``."""
    v = 4.0 * math.sqrt(d * functools.reduce(operator.add, lam, 0) / m)
    if math.isinf(v):
        v = 4.0 * math.sqrt(d) * math.hypot(*map(math.sqrt, lam)) / math.sqrt(m)
    if math.isinf(v):
        raise LatticeError(f"Lieb-Robinson speed overflows a float at "
                           f"d={d}, lam={tuple(lam)!r}, m={m!r}")
    return v


@dataclass(frozen=True)
class LightConeScan:
    """A scan's distances as three columns of one length, in r order, and its fit."""
    r: np.ndarray          # distances 1..r_max along the first axis, lattice units
    t_arrival: np.ndarray  # NaN where the peak stayed below the noise floor
    peak: np.ndarray       # max commutator norm over the scanned times
    fitted_velocity_lattice: float  # sites/s
    dt: float
    fit_intercept: float   # sites, r = v t + intercept
    fit_residual: float    # RMS of r - (v t + intercept) over fitted points, sites


def _orbit_rows(L: int, d: int, r_max: int) -> int:
    """Rows of ``_axis_orbits``' W, in closed form: comb(L//2 + d, d)
    orbits, or where they fold (even L, signal _FOLD_COLUMNS wide) one per
    mirror pair plus the self-mirrored t = reverse(L/2 - t): t_0 <= L/4
    with t_{d-1} = L/2 - t_0, and for odd d t_1 = L/4, so L/2 even."""
    orbits, h = math.comb(L // 2 + d, d), L // 2
    if L % 2 or r_max + 1 < _FOLD_COLUMNS:
        return orbits
    return (orbits + {1: 1 - h % 2, 2: h // 2 + 1, 3: (h // 2 + 1) * (1 - h % 2)}[d]) // 2


def _axis_orbits(spec: LatticeSpec, r_max: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Orbits of the wavevector grid under the reflections n -> L - n and
    all axis permutations, which fix omega: one per sorted index d-tuple t
    in 0..L//2, weighted at distance r by fold(t) perms(t) / (d L^d)
    sum_b cos(2 pi t_b r / L), since each t_b sits on axis 0 in 1/d of the
    orbit's fold(t) perms(t) points. For even L the mirror
    t' = reverse(L/2 - t) has the same fold and perms and (-1)^r times the
    weights of t; folded (``_orbit_rows``), W keeps the lesser t of each
    pair, then the self-mirrored t, and its columns hold the even distances,
    then the odd ones. Returns (omega, tuples, weight, cosines, pairs):
    omega[0] of W's rows and, folded, omega[1] of their mirrors; the t and
    fold(t) perms(t) / (d L^d) of each row; cos(2 pi n r / L) for each index
    n the t hold and each of W's columns r, from which ``_weight_rows``
    builds W a tile at a time; and the number of leading rows with a mirror.
    """
    L, d = spec.L, spec.d
    n = np.arange(L // 2 + 1)
    fold = np.where((n == 0) | (2 * n == L), 1.0, 2.0)  # |{n, L - n}|
    tuples = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(len(n)), d)),
        dtype=int).reshape(-1, d)
    members, pairs, kept = tuples[None], 0, _orbit_rows(L, d, r_max)
    if kept < len(tuples):
        mirror = L // 2 - tuples[:, ::-1]
        # 1 where t precedes its mirror in lexicographic order, 0 where t is its own
        side = np.sign((mirror - tuples) @ len(n) ** np.arange(d - 1, -1, -1))
        keep = np.argsort(-side, kind="stable")[:kept]
        pairs = int(np.count_nonzero(side > 0))
        members = np.array([tuples[keep], mirror[keep]])
        del mirror, side, keep
    omega = np.sqrt(omega_squared(spec, [2.0 * np.pi * t / L
                                         for t in members.transpose(2, 0, 1)]))
    tuples = members[0].copy()   # frees the mirrors with members
    del members
    # perms(t) = d! / prod(run lengths!): a sorted entry equal to the one
    # before it is the run's c-th element and adds a factor c
    run = np.ones(len(tuples))
    div = np.ones(len(tuples))
    for b in range(1, d):
        run = np.where(tuples[:, b] == tuples[:, b - 1], run + 1.0, 1.0)
        div *= run
    weight = math.factorial(d) / div * fold[tuples].prod(axis=1) / (d * spec.n_sites)
    r = np.arange(r_max + 1)
    if pairs:
        r = np.concatenate([r[::2], r[1::2]])
    # phases reduced mod L first, as the FFT twiddles are, so cos(2 pi k / L)
    # is read from one L-entry table at k = n r mod L
    table = np.cos(2.0 * np.pi / L * np.arange(L))
    cosines = table[np.remainder(np.multiply.outer(np.arange(tuples.max() + 1), r), L)]
    return omega, tuples, weight, cosines, pairs


def _weight_rows(cosines: np.ndarray, tuples: np.ndarray, weight: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Rows of W for the orbits ``tuples`` of weights ``weight``, in the
    first rows of ``out``: weight sum_b cos(2 pi t_b r / L), the sum taken
    over the rows t_b of ``_axis_orbits``' cosines in axis order."""
    rows = np.take(cosines, tuples[:, 0], axis=0, out=out[:len(tuples)],
                   mode="clip")   # unbuffered; every t_b has a row
    for t in tuples[:, 1:].T:
        rows += np.take(cosines, t, axis=0)
    rows *= weight[:, None]
    return rows


def _node_count(z: float, rows: int) -> int:
    """Chebyshev nodes per block of ``rows`` steps whose phase omega * h
    over half its span is at most z: the least n + 1 < rows with
    4 sum_{k>n} (z/2)^k / k! <= _NODE_ERROR, else ``rows``. A signal entry
    sums cos(omega t_c + omega h x), x in [-1, 1], with weights of absolute
    sum <= 1; each term's Chebyshev coefficients are |c_k| <= 2 |J_k(omega h)|
    <= 2 (z/2)^k / k! (A&S 9.1.44-45, 9.1.62), and interpolation at n + 1
    first-kind nodes errs by at most 2 sum_{k>n} |c_k|. Terms past the float
    range are inf; where the rule is met z/2 < n + 1 < rows, so past k = 2 rows
    each term is under half the one before and the sum stops there."""
    terms = itertools.accumulate(range(1, 2 * rows + 64),
                                 lambda term, k: term * (z / 2.0) / k, initial=1.0)
    tails = list(itertools.accumulate(reversed(list(terms))))[::-1]  # sum over k >= index
    return next((n for n in range(1, rows) if 4.0 * tails[n] <= _NODE_ERROR), rows)


def _interpolation(rows: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, I): ``count`` first-kind Chebyshev nodes u of a block of ``rows``
    steps, in steps from its centre, and the (rows, count) barycentric matrix
    I that takes values there to the rows (Berrut & Trefethen, SIAM Rev. 46,
    501 (2004)). No row of a block of at most _BLOCK_ROWS lies on a node.
    Where the count reaches the rows, u are the rows and I is the identity,
    whose product returns its input bit for bit."""
    half = (rows - 1) / 2.0
    if count == rows:
        return np.arange(rows) - half, np.eye(rows)
    angle = (2 * np.arange(count) + 1) * np.pi / (2 * count)
    u = half * np.cos(angle)
    I = (np.where(np.arange(count) % 2, -1.0, 1.0) * np.sin(angle)
         / np.subtract.outer(np.arange(rows) - half, u))
    return u, I / I.sum(axis=1, keepdims=True)


_Plan = NamedTuple("_Plan", [("dt", float), ("steps", int), ("rows", int),
                             ("blocks", int), ("w_max", float), ("count", int)])


def _plan(spec: LatticeSpec, r_max: int, dt: float | None, steps=None, t_max=None) -> _Plan:
    """The sizes of a scan of ``steps``, or of the grid to ``t_max`` (dt None:
    0.2 / omega_max), fixed before any array is built: rows per block (one node
    row if no steps), blocks, omega_max and Chebyshev nodes per block. Every
    work refusal is made here, in order: the time signal (``steps`` given), the
    orbit weights (bounding L for omega_max), the grid, the node rows, the phase."""
    if steps is not None:
        checked_cap(LatticeError, "the time signal needs", -(-steps // _BLOCK_ROWS)
                    * min(steps, _BLOCK_ROWS) * (r_max + 1), "array entries", _WORK_ENTRY_CAP)
    checked_cap(LatticeError, "the orbit weight matrix needs", _orbit_rows(spec.L, spec.d, r_max)
                * (r_max + 1), "array entries", _WORK_ENTRY_CAP)
    w_max = omega_max(spec)
    if dt is None:
        dt = 0.2 / w_max if w_max > 0 else t_max / 100.0
    steps = _grid_steps(t_max, dt) if steps is None else steps
    rows, blocks = min(steps, _BLOCK_ROWS) or 1, -(-steps // _BLOCK_ROWS)
    count = _node_count(w_max * ((rows - 1) * abs(dt) / 2.0), rows)
    checked_cap(LatticeError, "the light-cone node rows need", blocks * count * (r_max + 1),
                "array entries", _WORK_ENTRY_CAP)
    checked_phase(LatticeError, "omega_max*steps*|dt| of the time signal",
                  w_max, blocks * rows * abs(dt))
    return _Plan(dt, steps, rows, blocks, w_max, count)


def _signal_blocks(spec: LatticeSpec, plan: _Plan, r_max: int,
                   signal: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The block loop behind ``axis_signal`` and ``measure_light_cone``, sized
    by ``plan``: (nodes, I, maxima), the signal c(t_i, r) as (blocks, n + 1,
    r_max + 1) node rows, its (rows, n + 1) barycentric I and each block's
    max |c|, all in r order; or, given ``signal``, node rows at the head of
    each block's own steps there, expanded in place (no nodes or maxima).

    Each block of rows steps (the last cut short) is computed at the n + 1
    times u around its centre t_c, and I[:k] @ nodes[b] gives its first k
    steps. The sum runs over tiles of W's rows, each built by ``_weight_rows``
    in turn. A tile's table C, S = cos, sin(u dt omega) of its orbits (and
    mirrors) serves every block: node entries a = cos(t omega) are
    cos(t_c omega) C - sin(t_c omega) S from the block's own base angle (no
    recurrence, so no drift), then one product with the tile's W. Folded, W
    holds the even distances, then the odd ones: a pair's a + a' meets the
    even-r columns and a - a' the odd-r ones (a' = 0 if self-mirrored), two
    half-width products into alternate columns. The tiles' shares sum in the
    block's node rows, which I expands after the last tile.
    """
    dt, steps, rows, blocks, _, count = plan
    u, I = _interpolation(rows, count)
    omega, tuples, weight, cosines, pairs = _axis_orbits(spec, r_max)
    # rows of W per tile: its 4 node arrays (32 bytes per orbit or mirror and
    # node) fit _BLOCK_BYTES, and so do its W and each term that builds it
    width = min(len(tuples), _BLOCK_BYTES // (32 * len(u) * len(omega)),
                _BLOCK_BYTES // (8 * (r_max + 1)))
    even = r_max // 2 + 1   # even-r columns
    W, arrays = np.empty((width, r_max + 1)), np.empty(4 * len(u) * len(omega) * width)
    maxima = np.empty((blocks, r_max + 1)) if signal is None else None
    nodes = np.empty((blocks, count, r_max + 1)) if signal is None else None
    part = np.empty((rows, r_max + 1))   # a tile's product, then a block's steps
    for first in range(0, len(tuples), width):
        tile = slice(first, first + width)
        w, Wt = omega[:, None, tile], _weight_rows(cosines, tuples[tile], weight[tile], W)
        last = first + width >= len(tuples)
        own = max(0, pairs - first)   # self-mirrored from this column on: no mirror term
        C, S, block, work = arrays[:4 * len(u) * w.size].reshape(4, len(w), len(u), -1)
        angle = np.multiply(u[:, None] * dt, w, out=block)
        np.cos(angle, out=C)
        np.sin(angle, out=S)
        C[1:, :, own:] = S[1:, :, own:] = 0.0
        for k, at in enumerate(range(0, steps, _BLOCK_ROWS)):
            base = np.multiply((at + (rows - 1) / 2.0) * dt, w)
            np.multiply(C, np.cos(base), out=block)
            np.multiply(S, np.sin(base, out=base), out=work)
            np.subtract(block, work, out=block)
            node = nodes[k] if signal is None else signal[at:at + count]
            product = part[:len(u)] if first else node
            if pairs:   # a - a' into work[0], a + a' into block[0]
                np.subtract(block[0], block[1], out=work[0])
                np.add(block[0], block[1], out=block[0])
                np.matmul(block[0], Wt[:, :even], out=product[:, 0::2])
                np.matmul(work[0], Wt[:, even:], out=product[:, 1::2])
            else:
                np.matmul(block[0], Wt, out=product)
            if first:   # add the earlier tiles' share
                np.add(node, product, out=node)
            if last:   # numpy buffers the node rows that signal's steps overlap
                n = min(rows, steps - at)
                sigma = part[:n] if signal is None else signal[at:at + n]
                np.matmul(I[:n], node, out=sigma)
                if signal is None:
                    np.abs(sigma, out=sigma).max(axis=0, out=maxima[k])
    return nodes, I, maxima


def axis_signal(spec: LatticeSpec, dt: float, steps: int, r_max: int) -> np.ndarray:
    """On-axis entries c(t_i, r) = L^-d sum_k cos(omega_k t_i) cos(k_0 r) of
    the cos(omega t) circulant, t_i = i dt for i < steps and r = 0..r_max,
    as a (steps, r_max + 1) array stored time-major. This is
    sigma(f_t, g) for a unit q probe at the origin and a unit p probe at
    distance r along axis 0, charged to the cap in whole blocks. Each block's
    node rows are built in its own steps and expanded there, once; the buffer
    runs past the steps only by the last block's node rows."""
    steps = checked_index(LatticeError, "steps", steps)
    r_max = checked_index(LatticeError, "r_max", r_max)
    if not math.isfinite(dt) or steps < 0:
        raise LatticeError("dt must be finite and steps >= 0")
    if not 0 <= r_max < spec.L:
        raise LatticeError("r_max must lie in 0..L-1")
    plan = _plan(spec, r_max, dt, steps)
    signal = np.empty((max(steps, (plan.blocks - 1) * plan.rows + plan.count), r_max + 1))
    _signal_blocks(spec, plan, r_max, signal)
    return signal[:steps]


def _block_norms(nodes: np.ndarray, I: np.ndarray, steps: int,
                 blocks: np.ndarray, cols: np.ndarray):
    """Yield (pairs, norms): row k of norms is the commutator norm
    2|sin(sigma/2)| over the steps of block blocks[pairs[k]] in column
    cols[pairs[k]], the columns distinct. The non-last blocks' pairs, then the
    last block's, are packed into one node-row matrix, each in its own column,
    that I[:n] takes to n steps as the block loop takes a block: one product
    per part, the same product, so the same bits under any one BLAS kernel."""
    packed, sigma = np.zeros(nodes.shape[1:]), np.empty((len(I), nodes.shape[2]))
    last = blocks == len(nodes) - 1
    for pairs, n in ((np.flatnonzero(~last), len(I)),
                     (np.flatnonzero(last), steps - (len(nodes) - 1) * _BLOCK_ROWS)):
        if len(pairs):
            packed[:, cols[pairs]] = nodes[blocks[pairs], :, cols[pairs]].T
            np.matmul(I[:n], packed, out=sigma[:n])
            yield pairs, 2.0 * np.abs(np.sin(0.5 * sigma[:n, cols[pairs]].T))


def _cone_reads(steps: int, threshold: float, nodes: np.ndarray, I: np.ndarray,
                maxima: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Peak norm and arrival step (-1 for none) of each distance r >= 1 over
    ``steps`` steps of ``_signal_blocks``' output.

    2|sin(x/2)| increases with |x| on |x| <= 1 < pi, so the peak is the norm
    of the largest |sigma| in ``maxima``, which the product that
    ``_block_norms`` repeats gave. The arrival lies on an entry at or above a
    cut under 2 asin(level/2) by more than the norm's rounding (relative
    1e-12, and 1e-290 absolute where floats are coarser), so only blocks
    whose maxima reach it are read, one per distance and round: the arrival
    is the first entry whose norm reaches the level in the first such block,
    or else in the next, and so on. The peak's block holds a hit, so a
    distance left with no unread block that reaches its cut is refused as a
    defect rather than read again.
    """
    peaks = 2.0 * np.abs(np.sin(0.5 * maxima.max(axis=0)))
    live = np.flatnonzero(peaks >= _PEAK_NOISE_FLOOR)
    level = threshold * peaks[live]
    reach = maxima[:, live] >= 2.0 * np.arcsin(level / 2.0) * (1.0 - 1e-12) - 1e-290
    arrivals = np.full(maxima.shape[1], -1)
    left = np.arange(len(live))   # the live distances not yet arrived
    while len(left):
        unread = reach[:, left]
        if not (found := unread.any(axis=0)).all():   # the maxima and reads disagree
            raise LatticeError(f"light-cone read: distance {live[left[~found][0]]} has "
                               "no unread block whose maximum reaches its cut")
        blocks = np.argmax(unread, axis=0)   # the first unread block that reaches
        reach[blocks, left] = False
        for part, norms in _block_norms(nodes, I, steps, blocks, live[left]):
            found = norms >= level[left[part], None]
            arrivals[live[left[part]]] = np.where(found.any(axis=1), blocks[part] * _BLOCK_ROWS
                                                  + np.argmax(found, axis=1), -1)
        left = left[arrivals[live[left]] < 0]
    return peaks[1:], arrivals[1:]   # distance 0 is read with the others, then dropped


def _grid_steps(t_max: float, dt: float) -> int:
    """The points of the grid np.arange(0, t_max + dt, dt) at or below
    t_max + 1e-12, counted without building it. numpy gives the grid
    ceil((t_max + dt) / dt) points t_i = i * dt (bitwise), which rise with
    i, so only its last few can pass the cut; past 2^53 points, where i * dt
    no longer rises at every step, all are counted. An overflowing t_max + dt
    is refused, and a grid past the float range by the node-entry cap."""
    if math.isinf(t_max + dt):
        raise LatticeError(f"t_max + dt = {t_max!r} + {dt!r} overflows a float")
    if math.isinf(span := (t_max + dt) / dt):
        checked_cap(LatticeError, "the light-cone node rows need", span, "array entries",
                    _WORK_ENTRY_CAP)
    steps = math.ceil(span)
    while 0 < steps <= 2 ** 53 and (steps - 1) * dt > t_max + 1e-12:
        steps -= 1
    return steps


def measure_light_cone(spec: LatticeSpec, threshold: float, t_max: float,
                       r_max: int, dt: float | None = None,
                       fit_r_min: int = 1) -> LightConeScan:
    """Empirical light cone of the q/p commutator probe pair.

    Probe f is a unit real amplitude at the origin (position quadrature) and
    g a unit imaginary amplitude at distance r along the first axis (momentum
    quadrature); this pairing has the earliest nonzero response. For each r
    the arrival time is the earliest t where the commutator norm reaches
    ``threshold`` times that distance's own peak (relative to the per-r peak,
    so the 1/sqrt(r) amplitude decay of spreading waves does not skew the
    velocity). The fitted velocity is the least-squares slope of r against
    arrival time over r >= fit_r_min. ``_plan`` sizes the scan and refuses
    first; the scan holds the signal's node rows, never the signal.
    """
    if spec.L < 2 * spec.nu + 2:
        raise LatticeError("L too small for range")
    if not 0.0 < threshold < 1.0:
        raise LatticeError("threshold must lie in (0, 1)")
    if (r_max := checked_index(LatticeError, "r_max", r_max)) < 1:
        raise LatticeError("r_max must be >= 1")
    if r_max > spec.L // 2 - spec.nu:
        raise LatticeError("r_max too large for lattice (wrap-around)")
    if (fit_r_min := checked_index(LatticeError, "fit_r_min", fit_r_min)) < 1:
        raise LatticeError(f"fit_r_min must be >= 1, got {fit_r_min}")
    if fit_r_min > r_max - 1:
        raise LatticeError(f"fit_r_min = {fit_r_min} leaves fewer than two "
                           f"distances to fit (r_max = {r_max})")
    if not math.isfinite(t_max):
        raise LatticeError("t_max must be finite")
    if t_max <= 0:
        raise LatticeError("t_max must be positive")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise LatticeError("dt must be finite and positive")
    plan = _plan(spec, r_max, dt, t_max=t_max)
    peaks, arrivals = _cone_reads(plan.steps, threshold, *_signal_blocks(spec, plan, r_max))
    r = np.arange(1, r_max + 1)
    t_arrival = np.where(arrivals < 0, np.nan, arrivals * plan.dt)
    fit = (arrivals >= 0) & (r >= fit_r_min)
    slope, intercept, residual = _fit_line(
        list(zip(t_arrival[fit].tolist(), r[fit].tolist())))
    return LightConeScan(r=r, t_arrival=t_arrival, peak=peaks,
                         fitted_velocity_lattice=slope, dt=plan.dt,
                         fit_intercept=intercept, fit_residual=residual)


def _fit_line(points: list[tuple[float, int]]) -> tuple[float, float, float]:
    """Least-squares (slope, intercept, RMS residual) of r = slope*t + intercept
    over the (t, r) points, in closed form from centred ``math.fsum`` sums:
    no BLAS, so the same bits under every kernel. The times are scaled by
    the power of two 2^-e that brings the largest below 1, which leaves
    every rounding as it was and keeps the squares inside the float range.

    When every time is the same c, any line through (c, mean r) fits; the
    one returned is the least-norm one, c*mean(r), mean(r) over c^2 + 1, as
    a least-squares solver returns it for that rank-one design."""
    if len(points) < 2:
        raise LatticeError("not enough arrivals to fit a velocity")
    e = math.frexp(max(t for t, _ in points))[1]
    t = [math.ldexp(t, -e) for t, _ in points]
    r = [float(r) for _, r in points]
    n = len(points)
    t_mean, r_mean = math.fsum(t) / n, math.fsum(r) / n
    stt = math.fsum((ti - t_mean) * (ti - t_mean) for ti in t)
    if stt > 0.0:
        slope = math.ldexp(math.fsum((ti - t_mean) * (ri - r_mean)
                                     for ti, ri in zip(t, r)) / stt, -e)
        intercept = r_mean - slope * math.ldexp(t_mean, e)
    else:
        c, h = points[0][0], math.hypot(points[0][0], 1.0)   # h^2 = c^2 + 1
        slope, intercept = c / h * (r_mean / h), r_mean / h / h
    residual = math.sqrt(math.fsum((ri - (slope * ti + intercept)) ** 2
                                   for (ti, _), ri in zip(points, r)) / n)
    return slope, intercept, residual
