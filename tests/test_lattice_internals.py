"""Tests of the light-cone engine's intermediates: with the fault catalogue
``tests/test_faults.py``, which corrupts them, the one test file that names
private attributes of ``qram_bounds.lattice`` (the guard below keeps it so). Each test checks one intermediate, such as W's bits, the tile rule,
the block maxima, the reads behind the scan rows or ``_fit_line``, and goes
when that intermediate goes.
"""
import itertools
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_oracles import (SIGNAL_CASES, assert_cone_columns, full_signal_rows,
                             ifftn_axis_signal)
from qram_bounds import lattice, verify
from qram_bounds.lattice import (LatticeError, LatticeSpec, axis_signal,
                                 measure_light_cone)


# a source names a private lattice attribute _x by a read lattice._x (also
# qram_bounds.lattice._x, or that string as a patch target), by a patch
# target (lattice, "_x", ...) of setattr, monkeypatch.setattr or
# mock.patch.object, or by importing _x from the module
PRIVATE_LATTICE_NAME = re.compile(r"""\blattice\.(_(?!_)\w*)|\blattice,\s*["'](_(?!_)\w*)"""
                                  r"|\blattice\s+import\s+\(?[\w\s,]*?\b(_(?!_)\w*)")


def private_lattice_names(source):
    """The private attributes of ``qram_bounds.lattice`` that ``source`` names."""
    return [next(filter(None, match.groups()))
            for match in PRIVATE_LATTICE_NAME.finditer(source)]


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_private_lattice_names_stay_in_this_file(path):
    names = private_lattice_names(path.read_text())
    assert bool(names) == (path.name in (Path(__file__).name, "test_faults.py")), names


@pytest.mark.parametrize("source,names", [
    ("lattice._x + qram_bounds.lattice._y + lattice.__name__", ["_x", "_y"]),
    ("monkeypatch.setattr(lattice, '_x', 1)\nmock.patch.object(lattice, \"_y\", 1)",
     ["_x", "_y"]),
    ("monkeypatch.setattr('qram_bounds.lattice._x', 1)", ["_x"]),
    ("from qram_bounds.lattice import (LatticeError,\n    _x)", ["_x"]),
    ("lattice.axis_signal, setattr(lattice, 'omega_max', f), qram._route", [])])
def test_guard_finds_every_form_of_private_name(source, names):
    assert private_lattice_names(source) == names


def reaches_regime(case):
    """Whether the engine lays a ``SIGNAL_CASES`` row out in the regime
    its id names."""
    regime, spec, dt, steps, r_max = case
    omega, tuples, *_, pairs = lattice._axis_orbits(spec, r_max)
    plan = lattice._plan(spec, r_max, dt, steps)
    rows, nodes = plan.rows, plan.count   # every block's
    # rows of W per tile: its node arrays and its W each fit the block budget
    width = min(len(tuples), lattice._BLOCK_BYTES // (32 * nodes * len(omega)),
                lattice._BLOCK_BYTES // (8 * (r_max + 1)))
    last = (len(tuples) - 1) // width * width   # first row of the last tile
    orbits = math.comb(spec.L // 2 + spec.d, spec.d)
    interpolated = nodes < rows
    short = steps % rows   # steps of a short last block
    return {
        "many-blocks": steps >= 2 * lattice._BLOCK_ROWS,
        "multi-tile": steps > lattice._BLOCK_ROWS and last > 0,
        "above-4096-orbits": orbits > 4096 and orbits > 25 * width,
        "folded-L0mod4": pairs > 0 and spec.L % 4 == 0,
        "folded-L2mod4": pairs > 0 and spec.L % 4 == 2,
        "odd-L": pairs == 0 and spec.L % 2 == 1,
        "unfolded": pairs == 0 and spec.L % 2 == 0,
        # pairs and every self-mirrored row share the last of several tiles
        "self-mirrored-last-tile": 0 < last < pairs < len(tuples),
        # the last block's node sums run past the last step
        "short-last": interpolated and 0 < short < nodes,
        "direct-short": not interpolated and short > 0,
        "direct-rows": not interpolated,
        "folded-interpolated": pairs > 0 and interpolated,
        "odd-L-interpolated": spec.L % 2 == 1 and interpolated,
        "multi-tile-interpolated": last >= 2 * width and interpolated,
    }[regime]


def test_verify_dense_cases_reach_the_engine_layouts():
    # verify's dense check covers folded and unfolded orbits, blocks built
    # from nodes and row by row, odd L, a short last block and d = 1, 2, 3
    regimes = {"folded-interpolated", "direct-rows", "odd-L", "unfolded", "short-last"}
    assert {regime for regime in regimes for case in verify.DENSE_CASES
            if reaches_regime((regime, *case))} == regimes
    assert sorted(spec.d for spec, *_ in verify.DENSE_CASES) == [1, 1, 2, 3]


class TestOrbits:
    @staticmethod
    def kept_orbits(L, d, r_max):
        """The sorted index tuples with a row in W, in row order, and the
        mirror reverse(L/2 - t) of each, from Python tuples: where the
        orbits fold, the t that precede their mirror, then the t that are
        their own; else every t."""
        tuples = list(itertools.combinations_with_replacement(range(L // 2 + 1), d))
        mirror = {t: tuple(sorted(L // 2 - n for n in t)) for t in tuples}
        if L % 2 or r_max + 1 < lattice._FOLD_COLUMNS:
            return tuples, []
        pairs = [t for t in tuples if t < mirror[t]]
        return pairs + [t for t in tuples if t == mirror[t]], [mirror[t] for t in pairs]

    @pytest.mark.parametrize("d,L,r_max", [
        (1, 400, 190), (1, 9, 8), (2, 64, 30), (2, 10, 4), (3, 32, 14), (3, 64, 31),
        (3, 7, 6),
        # folded: L = 0 and 2 mod 4, even and odd r_max
        (1, 102, 101), (2, 64, 63), (2, 98, 60), (3, 48, 47), (3, 50, 48), (3, 64, 63)])
    def test_orbit_weights_take_one_cos_per_entry_bit_for_bit(self, d, L, r_max):
        # oracle: the cos of each entry's phase 2 pi (t_b r mod L) / L, as W
        # was built before the L-entry cos table, with the orbit size from
        # exact integers: d! / prod(run lengths!) perms times fold(t). A
        # mirror dropped by the fold has its pair's size, and its weights
        # are (-1)^r times the pair's row up to rounding: each cos(2 pi k / L)
        # is within (2 pi + 1/2) eps of exact, since its phase rounds by at
        # most 2 pi eps, so the d terms of the two rows differ by at most
        # (4 pi + 1) d eps times the weight. W's rows are built a tile at a
        # time: in tiles of 7 rows and in one tile, into a reused buffer
        spec = LatticeSpec(d=d, L=L, lam=(1.0,), m=1.0)
        kept, mirrors = self.kept_orbits(L, d, r_max)
        omega, tuples, weight, cosines, pairs = lattice._axis_orbits(spec, r_max)
        assert tuples.tolist() == [list(t) for t in kept]
        assert pairs == len(mirrors) and (pairs > 0) == (r_max + 1 >= 48 and L % 2 == 0)
        r = np.arange(r_max + 1)
        if pairs:   # folded, W holds the even distances, then the odd ones
            r = np.concatenate([r[::2], r[1::2]])

        def oracle(tuples):
            tuples = np.array(tuples).reshape(-1, d)
            cos_r = sum(np.cos(2.0 * np.pi / L * (np.outer(t, r) % L)) for t in tuples.T)
            mult = np.array([math.factorial(d)
                             // math.prod(map(math.factorial, Counter(t).values()))
                             * math.prod(1 if 2 * n % L == 0 else 2 for n in t)
                             for t in tuples.tolist()], dtype=float)
            return mult, (mult / (d * spec.n_sites))[:, None] * cos_r

        mult, rows = oracle(kept)
        assert np.array_equal(weight, mult / (d * spec.n_sites))
        for width in (7, len(tuples)):
            W = np.empty((width, r_max + 1))
            for first in range(0, len(tuples), width):
                tile = slice(first, first + width)
                assert np.array_equal(
                    lattice._weight_rows(cosines, tuples[tile], weight[tile], W), rows[tile])
        if pairs:
            mirror_mult, mirror_rows = oracle(mirrors)
            np.testing.assert_array_equal(mirror_mult, mult[:pairs])
            sign = np.where(r % 2, -1.0, 1.0)
            eps = np.finfo(float).eps
            tol = (4 * math.pi + 1) * eps * mult[:pairs, None] / spec.n_sites
            assert (np.abs(mirror_rows - sign * rows[:pairs]) <= tol).all()

    def test_row_count_is_closed_form(self):
        # _orbit_rows, which the size check charges before any tuple is
        # built, against the rows built and a count of the self-mirrored
        # tuples; the orbits fold exactly where L is even and the signal is
        # _FOLD_COLUMNS wide
        assert lattice._FOLD_COLUMNS == 48
        for d in (1, 2, 3):
            for L in range(2, 43):
                for r_max in (0, 46, 47, 60):
                    spec = LatticeSpec(d=d, L=L, lam=(1.0,), m=1.0)
                    omega, tuples, *_, pairs = lattice._axis_orbits(spec, r_max)
                    kept, mirrors = self.kept_orbits(L, d, r_max)
                    assert len(tuples) == lattice._orbit_rows(L, d, r_max) == len(kept)
                    assert (pairs > 0) == (L % 2 == 0 and r_max >= 47)
                    if pairs:
                        own = sum(tuple(sorted(L // 2 - n for n in t)) == t for t in kept)
                        assert own == len(kept) - pairs == {
                            1: int(L % 4 == 0), 2: L // 4 + 1,
                            3: (L // 4 + 1) * int(L % 4 == 0)}[d]

    @pytest.mark.parametrize("case", SIGNAL_CASES, ids=lambda case: case.id)
    def test_signal_case_reaches_its_regime(self, case):
        assert reaches_regime(case)


class TestBlockLoop:
    @pytest.mark.parametrize("steps", [0, 1, 127, 128, 129, 256, 300, 11001])
    def test_blocks_cover_the_scan_once(self, steps):
        # blocks of min(steps, _BLOCK_ROWS) steps, the last cut short where
        # the steps end, each with its own node rows and one row of the
        # block-maxima table. A short last block keeps all its node rows,
        # more than its one step at 129; I[:n] takes them to its n steps
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        B = lattice._BLOCK_ROWS
        plan = lattice._plan(spec, 3, 0.02, steps)
        assert (plan.steps, plan.blocks, plan.rows) == (steps, -(-steps // B), min(steps, B) or 1)
        nodes, I, maxima = lattice._signal_blocks(spec, plan, 3)
        assert nodes.shape == (plan.blocks, plan.count, 4) and nodes.flags.c_contiguous
        assert I.shape == (plan.rows, plan.count) and maxima.shape == (plan.blocks, 4)
        signal = axis_signal(spec, 0.02, steps, 3)
        for k, top in enumerate(maxima):
            block = signal[k * plan.rows:(k + 1) * plan.rows]
            np.testing.assert_array_equal(I[:len(block)] @ nodes[k], block)
            np.testing.assert_array_equal(top, np.abs(block).max(axis=0))

    @pytest.mark.parametrize("d,L,steps", [(1, 40, 50), (1, 400, 600),
                                           (2, 64, 513), (3, 32, 300), (2, 128, 300)])
    def test_block_maxima_are_the_plain_reduce(self, d, L, steps):
        # one block or many, one orbit tile (1D L=40) or several that add
        # into the block before its maximum is taken, a short last block,
        # and folded orbits in two tiles of interpolated blocks (1D L=400)
        # or eighteen of blocks computed row by row, through the identity
        # (2D L=128). The
        # block loop keeps node rows in r order, which axis_signal expands
        # time-major, with one row of maxima per block
        spec = LatticeSpec(d=d, L=L, lam=(1.0, 0.3), m=0.8)
        r_max = L // 2 - 2
        plan = lattice._plan(spec, r_max, 0.37, steps)
        nodes, I, maxima = lattice._signal_blocks(spec, plan, r_max)
        signal = axis_signal(spec, 0.37, steps, r_max)
        assert signal.shape == (steps, r_max + 1) and signal.flags.c_contiguous
        B = plan.rows
        assert maxima.shape == (plan.blocks, r_max + 1) == (len(nodes), r_max + 1)
        for k, top in enumerate(maxima):
            np.testing.assert_array_equal(top, np.abs(signal[k * B:(k + 1) * B]).max(axis=0))

    @given(d=st.integers(1, 3), nu=st.integers(1, 2), extra=st.integers(0, 4),
           lam=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=2),
           m=st.floats(0.1, 10.0), dt=st.floats(-6.0, 6.0),
           steps=st.integers(0, 9), r_max=st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_folded_small_specs_match_per_step_ifftn(self, d, nu, extra, lam, m, dt,
                                                      steps, r_max):
        # with the width rule lowered to one column every even L folds, down
        # to r_max = 0, where the odd-r product has no columns
        spec = LatticeSpec(d=d, L=2 * nu + 2 + extra, lam=tuple(lam[:nu]), m=m)
        r_max = min(r_max, spec.L - 1)
        with mock.patch.object(lattice, "_FOLD_COLUMNS", 1):
            assert (lattice._axis_orbits(spec, r_max)[-1] > 0) == (spec.L % 2 == 0)
            signal = axis_signal(spec, dt, steps, r_max)
        np.testing.assert_allclose(signal, ifftn_axis_signal(spec, dt, steps, r_max),
                                   rtol=0, atol=1e-12)


class TestNodes:
    Z_GRID = [0.01, 0.1, 0.5, 1.0, 2.0, 2.54, 5.0, 10.0, 12.7, 20.0, 30.0, 40.0, 50.0]

    @staticmethod
    def series_tail(z, n):
        """4 sum_{k>n} (z/2)^k / k!, the node rule's sum, from logs."""
        return 4.0 * math.fsum(math.exp(k * math.log(z / 2.0) - math.lgamma(k + 1.0))
                               for k in range(n + 1, n + 400))

    @pytest.mark.parametrize("z", Z_GRID)
    def test_node_rule_bounds_the_bessel_tail(self, z):
        # the interpolation error of one cos(omega (t_c + h x)) is at most
        # 4 sum_{k>n} |J_k(omega h)|, for every omega h up to z
        special = pytest.importorskip("scipy.special")
        count = lattice._node_count(z, lattice._BLOCK_ROWS)
        assert count < lattice._BLOCK_ROWS
        for omega_h in (z, 0.9 * z, 0.5 * z):
            tail = 4.0 * np.abs(special.jv(np.arange(count, count + 400), omega_h)).sum()
            assert tail <= lattice._NODE_ERROR

    def test_identity_interpolation_returns_the_node_rows(self):
        # at dt = 1 every block's 128 steps are its nodes and I is the
        # identity: axis_signal builds the node rows in its own steps
        # (16.8 MB; the block loop's tile arrays add 1.4 MB), with no second
        # array beside them (33.9 MB traced with one), equal to the blocks
        # expanded through I
        spec = LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0)
        steps, r_max = 11001, 190
        plan = lattice._plan(spec, r_max, 1.0, steps)
        nodes, I, _ = lattice._signal_blocks(spec, plan, r_max)
        assert plan.count == plan.rows == lattice._BLOCK_ROWS
        assert np.array_equal(I, np.eye(plan.rows))
        expanded = np.vstack([I @ block for block in nodes])[:steps]
        budget = nodes.nbytes + 2 ** 21
        del nodes
        tracemalloc.start()
        try:
            signal = axis_signal(spec, 1.0, steps, r_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget
        assert signal.shape == (steps, r_max + 1) and signal.flags.c_contiguous
        assert np.array_equal(signal, expanded)

    @pytest.mark.parametrize("z", Z_GRID)
    def test_node_count_is_the_least_that_meets_the_rule(self, z):
        count = lattice._node_count(z, lattice._BLOCK_ROWS)
        assert self.series_tail(z, count - 1) <= lattice._NODE_ERROR * (1 + 1e-12)
        if count > 1:
            assert self.series_tail(z, count - 2) > lattice._NODE_ERROR * (1 - 1e-12)

    def test_node_count_is_bounded_by_the_rows(self):
        # where no fewer nodes than rows meet the rule the rows are computed
        # themselves, whatever z: no term raises or warns. The 7-step scan
        # of SIGNAL_CASES' first direct-rows row has z = 125
        assert lattice._node_count(0.0, 1) == lattice._node_count(0.0, 128) == 1
        for rows in (1, 2, 7, 128):
            for z in (124.7, 1e3, 1e300, 1.7e308):
                assert lattice._node_count(z, rows) == rows
        assert lattice._node_count(60.0, 128) < 128 == lattice._node_count(70.0, 128)
        # there u are the rows and I the identity, whose product, of the
        # whole block or of a short last one, gives its input bit for bit
        w_max = lattice.omega_max(LatticeSpec(d=1, L=6, lam=(1.0, 1.0), m=0.125))
        u, I = lattice._interpolation(7, lattice._node_count(w_max * 3.0 * 6.0, 7))
        np.testing.assert_array_equal(u, np.arange(7) - 3.0)
        np.testing.assert_array_equal(I, np.eye(7))
        values = np.random.default_rng(0).standard_normal((128, 191))
        u, I = lattice._interpolation(128, 128)
        for n in (1, 3, 127, 128):
            assert np.array_equal(I[:n] @ values, values[:n])

    def test_interpolation_at_every_block_shape(self):
        # every rows <= _BLOCK_ROWS and node count below it: no row lies on
        # a node, each row of I sums to 1, and I takes the Chebyshev
        # polynomial of the top degree to its rows, up to its Lebesgue constant
        for rows in range(2, lattice._BLOCK_ROWS + 1):
            half = (rows - 1) / 2.0
            x = (np.arange(rows) - half) / half
            for count in range(1, rows):
                u, I = lattice._interpolation(rows, count)
                assert I.shape == (rows, count) and np.isfinite(I).all()
                assert (np.abs(u) < half).all() and (np.diff(u) < 0).all()
                np.testing.assert_allclose(I.sum(axis=1), 1.0, rtol=0, atol=1e-13)
                if count in (2, rows // 2, rows - 1):
                    degree = count - 1
                    T = np.cos(degree * np.arccos(np.clip(u / half, -1.0, 1.0)))
                    lebesgue = np.abs(I).sum(axis=1).max()
                    np.testing.assert_allclose(I @ T, np.cos(degree * np.arccos(x)),
                                               rtol=0, atol=1e-14 * lebesgue * count)

    @pytest.mark.parametrize("rows,z", [(128, 2.54), (128, 12.7), (128, 50.0),
                                        (44, 1.0), (20, 0.01)])
    def test_interpolated_block_meets_the_bound(self, rows, z):
        # cos(omega (t_c + t)) at the block's nodes, taken to its rows by I,
        # against the exact rows, at the largest omega the rule covers and
        # at smaller ones; rounding adds a few ulps of the phase. A short
        # last block of n steps reads I[:n], for every n up to the rows
        u, I = lattice._interpolation(rows, lattice._node_count(z, rows))
        assert len(u) < rows
        t = np.arange(rows) - (rows - 1) / 2.0
        for omega in (z, 0.7 * z, 0.3 * z):
            omega /= (rows - 1) / 2.0
            for phase in (0.0, 0.4, 1.9):
                nodes, exact = np.cos(omega * u + phase), np.cos(omega * t + phase)
                for n in range(1, rows + 1):
                    np.testing.assert_allclose(I[:n] @ nodes, exact[:n], rtol=0,
                                               atol=lattice._NODE_ERROR + 4e-16 * (z + 2.0))

    @pytest.mark.parametrize("dt,steps", [(0.05, 300), (0.02, 257), (0.6, 259), (0.02, 0)])
    def test_nodes_and_interpolation_built_once_per_scan(self, dt, steps):
        # one node count and one (u, I) serve every tile and every block,
        # the short last one too: 2D L=128 at r_max 63 takes several tiles
        spec = LatticeSpec(d=2, L=128, lam=(1.0, 0.3), m=0.8)
        with mock.patch.object(lattice, "_node_count", wraps=lattice._node_count) as count, \
                mock.patch.object(lattice, "_interpolation",
                                  wraps=lattice._interpolation) as interpolation:
            plan = lattice._plan(spec, 63, dt, steps)
            nodes, I, maxima = lattice._signal_blocks(spec, plan, 63)
        assert count.call_count == interpolation.call_count == 1
        assert nodes.shape == (plan.blocks, plan.count, 64) and len(maxima) == plan.blocks


class TestWorkCaps:
    def test_weight_matrix_cap_boundary(self, monkeypatch):
        # the cap charges the rows built times r_max + 1 entries
        def no_orbits(*args):
            raise AssertionError("orbits built before the size check")

        for L, r_max, rows in (
                (32, 14, 969),                # C(L//2 + 3, 3) = C(19, 3), too narrow to fold
                (49, 47, 2925),               # odd L: C(27, 3) and no mirror pairs
                (64, 63, (6545 + 17) // 2)):  # C(35, 3) fold around 17 self-mirrored
            spec = LatticeSpec(d=3, L=L, lam=(1.0,), m=1.0)
            with monkeypatch.context() as patch:
                patch.setattr(lattice, "_WORK_ENTRY_CAP", rows * (r_max + 1))
                assert axis_signal(spec, 1.0, 1, r_max).shape == (1, r_max + 1)
                patch.setattr(lattice, "_WORK_ENTRY_CAP", rows * (r_max + 1) - 1)
                patch.setattr(lattice, "_axis_orbits", no_orbits)
                message = f"the orbit weight matrix needs {rows * (r_max + 1)} array"
                with pytest.raises(LatticeError, match=re.escape(message)):
                    axis_signal(spec, 1.0, 1, r_max)

    @pytest.mark.parametrize("steps,charged", [(100, 100), (128, 128), (129, 256),
                                               (300, 384)])
    def test_time_signal_cap_charges_the_last_block_end(self, steps, charged, monkeypatch):
        # axis_signal charges its signal in whole blocks of
        # min(steps, _BLOCK_ROWS) steps, to the last block's end; the node
        # rows it is expanded from are fewer
        spec = LatticeSpec(d=1, L=16, lam=(1.0,), m=1.0)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", charged * 4)
        assert axis_signal(spec, 0.02, steps, 3).shape == (steps, 4)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", charged * 4 - 1)
        with pytest.raises(LatticeError, match=re.escape(
                f"the time signal needs {charged * 4} array entries")):
            axis_signal(spec, 0.02, steps, 3)

    @given(k=st.integers(1, 20_000), dt=st.floats(1e-4, 10.0),
           nudge=st.sampled_from([0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-9, 0.5]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_grid_steps_count_the_arange_grid(self, k, dt, nudge):
        # t_max at, just off and between multiples of dt, where the 1e-12
        # cut decides the last step
        t_max = k * dt * (1.0 + nudge)
        grid = np.arange(0.0, t_max + dt, dt)
        assert lattice._grid_steps(t_max, dt) == np.count_nonzero(grid <= t_max + 1e-12)

    def test_time_signal_refused_once_before_the_orbits(self, monkeypatch):
        # the scan's own grid count goes to the block loop's one check, which
        # charges the time signal's node rows: 4,987 blocks (638,209 steps)
        # of 21 node rows times 191 distances
        def no_orbits(*args):
            raise AssertionError("orbits built before the size check")

        monkeypatch.setattr(lattice, "_axis_orbits", no_orbits)
        spec = LatticeSpec(d=1, L=400, lam=(1.0,), m=1.0)
        with pytest.raises(LatticeError, match="^the light-cone node rows need 20002857 "
                           "array entries, above the cap of 20000000$"):
            measure_light_cone(spec, threshold=1e-3, t_max=12764.16, r_max=190, dt=0.02)

    def test_scan_whose_signal_passes_the_cap_runs_on_its_node_rows(self, monkeypatch):
        # 1,001 steps in 8 blocks of 21 node rows, times r_max + 1 = 11: the
        # scan fits a cap that its signal passes (11,264 entries in whole
        # blocks, as axis_signal charges it), and reads the same rows
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        expected = full_signal_rows(spec, 1e-3, 20.0, 10, 0.02)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 8 * 21 * 11)
        assert_cone_columns(measure_light_cone(spec, 1e-3, 20.0, 10, 0.02), expected)
        with pytest.raises(LatticeError, match="the time signal needs 11264 array"):
            axis_signal(spec, 0.02, 1001, 10)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 8 * 21 * 11 - 1)
        with pytest.raises(LatticeError, match="light-cone node rows need 1848 array"):
            measure_light_cone(spec, 1e-3, 20.0, 10, 0.02)

    @pytest.mark.parametrize("scan", [
        lambda spec: measure_light_cone(spec, 1e-3, 20.0, 10),
        lambda spec: measure_light_cone(spec, 1e-3, 20.0, 10, dt=0.02),
        lambda spec: axis_signal(spec, 0.02, 1001, 10)],
        ids=["automatic-dt", "given-dt", "axis-signal"])
    def test_plan_reads_each_size_once_per_scan(self, scan):
        # omega_max, the node count and (u, I) are read once, by the plan
        # and the block loop, where the automatic dt once read omega_max twice
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        with mock.patch.object(lattice, "omega_max", wraps=lattice.omega_max) as w_max, \
                mock.patch.object(lattice, "_node_count", wraps=lattice._node_count) as count, \
                mock.patch.object(lattice, "_interpolation",
                                  wraps=lattice._interpolation) as interpolation:
            scan(spec)
        assert w_max.call_count == count.call_count == interpolation.call_count == 1

    @pytest.mark.parametrize("scan,message", [
        # every input but the last would also be refused by a later check
        (lambda: axis_signal(LatticeSpec(d=3, L=256, lam=(1.0,), m=1.0), 1.0, 10 ** 6, 127),
         "the time signal needs 128008192 array entries"),
        (lambda: measure_light_cone(LatticeSpec(d=3, L=256, lam=(1.0,), m=1.0),
                                    1e-3, 1e9, 127, dt=1e-3),
         "the orbit weight matrix needs 23437440 array entries"),
        (lambda: measure_light_cone(LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0),
                                    1e-3, 1.7e308, 10, dt=1e308),
         r"t_max + dt = 1.7e+308 + 1e+308 overflows a float"),
        (lambda: measure_light_cone(LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0),
                                    1e-3, 1e308, 30, dt=1e302),
         "the light-cone node rows need 31001984 array entries"),
        (lambda: axis_signal(LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0), 1e308, 3, 10),
         "phase omega_max*steps*|dt| of the time signal = 2.0*inf")],
        ids=["time-signal", "orbit-weights", "grid", "node-rows", "phase"])
    def test_every_refusal_comes_before_orbits_and_nodes(self, scan, message, monkeypatch):
        # the plan refuses in order: the time signal (axis_signal's only),
        # the orbit weights, the grid, the node rows, the phase; nothing of
        # the block loop is built first
        def never(*args):
            raise AssertionError("orbits or interpolation built before the plan refused")

        monkeypatch.setattr(lattice, "_axis_orbits", never)
        monkeypatch.setattr(lattice, "_interpolation", never)
        with pytest.raises(LatticeError, match="^" + re.escape(message)):
            scan()

    def test_work_cap_boundary(self, monkeypatch):
        # t = 0, 0.125, .., 5: 41 steps in one block of 28 node rows, times
        # r_max + 1 = 11 entries, charged once, by the block loop's own
        # count; the 21 orbits of L = 40 take fewer
        spec = LatticeSpec(d=1, L=40, lam=(1.0,), m=1.0)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 28 * 11)
        measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=10, dt=0.125)
        monkeypatch.setattr(lattice, "_WORK_ENTRY_CAP", 28 * 11 - 1)
        with pytest.raises(LatticeError, match="light-cone node rows need 308 array entries"):
            measure_light_cone(spec, threshold=1e-3, t_max=5.0, r_max=10,
                               dt=0.125)


class TestConeReads:
    """Columns read from fake node rows through ``_signal_blocks``, against
    ``full_signal_rows`` entry by entry."""

    @staticmethod
    def scan_of(columns, threshold, monkeypatch):
        """Scan of a signal whose distances 1.. hold ``columns`` (steps 0.5
        apart), as node rows where their count reaches the rows (coarse dt):
        each block holds its own steps in r order and I is the identity. A
        short last block's rows past the steps hold sigma = 1.5, above every
        column's peak, which a read of them would return. The block maxima
        of the signal are taken by a plain reduce."""
        columns = np.array(columns, dtype=float)
        signal = np.vstack([np.zeros(columns.shape[1]), columns]).T.copy()

        def signal_blocks(spec, plan, r_max, expanded=None):
            assert signal.shape == (plan.steps, r_max + 1)
            nodes = np.full((plan.blocks * plan.rows, r_max + 1), 1.5)
            nodes[:plan.steps] = signal
            if expanded is not None:   # axis_signal's, which full_signal_rows reads
                expanded[:] = nodes
            starts = np.arange(0, plan.steps, plan.rows)
            return (nodes.reshape(plan.blocks, plan.rows, r_max + 1), np.eye(plan.rows),
                    np.maximum.reduceat(np.abs(signal), starts, axis=0))

        monkeypatch.setattr(lattice, "_signal_blocks", signal_blocks)
        spec = LatticeSpec(d=1, L=64, lam=(1.0,), m=1.0)
        args = (spec, threshold, 0.5 * (columns.shape[1] - 1), len(columns), 0.5)
        scan = measure_light_cone(*args)
        assert_cone_columns(scan, full_signal_rows(*args))
        return scan

    @staticmethod
    def miss_and_hit(peak_sigma, threshold):
        """(sigma_miss, sigma_hit): sigma_hit is the least float whose norm
        reaches threshold * 2 sin(peak_sigma / 2), sigma_miss the float
        below it."""
        level = threshold * 2.0 * math.sin(peak_sigma / 2.0)
        hit = 2.0 * math.asin(level / 2.0)
        norm = lambda x: 2.0 * np.abs(np.sin(np.float64(x) * 0.5))
        while norm(np.nextafter(hit, 0.0)) >= level:
            hit = np.nextafter(hit, 0.0)
        while norm(hit) < level:
            hit = np.nextafter(hit, 1.0)
        miss = np.nextafter(hit, 0.0)
        assert norm(miss) < level <= norm(hit)
        return miss, hit

    @staticmethod
    def spikes(steps, entries):
        """A column of ``steps`` zeros but for {step: sigma} ``entries``."""
        column = [0.0] * steps
        for step, sigma in entries.items():
            column[step] = sigma
        return column

    def test_tied_and_signed_peaks(self, monkeypatch):
        top = 0.7
        scan = self.scan_of([[0.1, top, -top, 0.2, 0.0, 0.0],
                             [0.1, -top, np.nextafter(top, 0.0), top, 0.0, 0.0],
                             [0.0, 0.3, top * (1 - 5e-13), -top * (1 - 5e-13), top, 0.0]],
                            0.1, monkeypatch)
        assert scan.peak.tolist() == [2.0 * math.sin(top / 2.0)] * 3

    def test_arrival_one_step_from_threshold(self, monkeypatch):
        # a miss may precede the hit by any gap. At this threshold sigma_hit
        # lies one float below 2 asin(threshold * peak / 2), so a cut at
        # that value misses it
        peak_sigma, threshold = 0.9, 0.850256191055818
        miss, hit = self.miss_and_hit(peak_sigma, threshold)
        level = threshold * 2.0 * math.sin(peak_sigma / 2.0)
        assert hit < 2.0 * math.asin(level / 2.0)
        gap = [0.01] * 20
        scan = self.scan_of([[0.0, miss, hit, peak_sigma] + gap,
                             [0.0, -miss, -miss, -hit, peak_sigma] + gap[1:],
                             [miss] + gap + [hit, miss, peak_sigma, 0.0, 0.0][:3]],
                            threshold, monkeypatch)
        assert scan.t_arrival.tolist() == [1.0, 1.5, 10.5]

    def test_peaks_tied_across_blocks(self, monkeypatch):
        # every block whose maximum reaches the cut is read: the largest norm
        # may sit in a later block than a near-tie, or in an earlier one
        top, steps = 0.7, 600
        near = top * (1 - 5e-13)
        scan = self.scan_of([self.spikes(steps, {100: top, 300: -top, 520: near}),
                             self.spikes(steps, {10: -near, 511: top, 512: -near}),
                             self.spikes(steps, {255: np.nextafter(top, 0.0), 256: -top}),
                             self.spikes(steps, {0: near, 599: top})],
                            0.1, monkeypatch)
        assert scan.peak.tolist() == [2.0 * math.sin(top / 2.0)] * 4

    def test_arrival_windows_across_block_ends(self, monkeypatch):
        # the first entry past the cut on a block's last row (255) is a
        # hit, or a miss whose hit lies in the next block (257, 262, 263).
        # The last, short block (512..599) is read in its own 88 steps
        peak_sigma, threshold = 0.9, 0.850256191055818
        miss, hit = self.miss_and_hit(peak_sigma, threshold)
        steps = 600
        scan = self.scan_of([self.spikes(steps, {255: hit, 400: peak_sigma}),
                             self.spikes(steps, {255: miss, 257: -hit, 400: peak_sigma}),
                             self.spikes(steps, {255: -miss, 262: hit, 400: peak_sigma}),
                             self.spikes(steps, {255: miss, 263: hit, 400: peak_sigma}),
                             self.spikes(steps, {595: miss, 599: peak_sigma}),
                             self.spikes(steps, {599: -peak_sigma})],
                            threshold, monkeypatch)
        assert scan.t_arrival.tolist() == [127.5, 128.5, 131.0, 131.5, 299.5, 299.5]

    def test_arrival_in_a_short_last_block(self, monkeypatch):
        # steps 256..299 form the last block, 44 of its 128 rows: the
        # arrival lies there, directly or after a miss in block 0, and so
        # does the peak, while the rows past step 299 are never read
        peak_sigma, threshold = 0.9, 0.850256191055818
        miss, hit = self.miss_and_hit(peak_sigma, threshold)
        steps = 300
        scan = self.scan_of([self.spikes(steps, {290: hit, 299: peak_sigma}),
                             self.spikes(steps, {10: miss, 256: -hit, 257: -peak_sigma}),
                             self.spikes(steps, {299: -peak_sigma}),
                             self.spikes(steps, {297: 1e-6, 299: 0.5})],
                            threshold, monkeypatch)
        assert scan.t_arrival.tolist() == [145.0, 128.0, 149.5, 149.5]
        assert scan.peak.tolist() == [2.0 * math.sin(0.45)] * 3 + [
            2.0 * math.sin(0.25)]

    def test_miss_whose_next_entry_past_the_cut_lies_blocks_later(self, monkeypatch):
        # the cut admits a miss in block 0; the next entry past it, a hit,
        # is in block 5, and the peak in block 6
        peak_sigma, threshold = 0.9, 0.850256191055818
        miss, hit = self.miss_and_hit(peak_sigma, threshold)
        steps = 900
        scan = self.scan_of([self.spikes(steps, {10: miss, 700: hit, 800: peak_sigma}),
                             self.spikes(steps, {10: miss, 14: miss, 520: -miss,
                                                 700: -hit, 899: peak_sigma})],
                            threshold, monkeypatch)
        assert scan.t_arrival.tolist() == [350.0, 350.0]

    def test_peak_tied_across_two_blocks_reads_one_product_per_part(self, monkeypatch):
        # each distance's largest |sigma| is tied across two blocks (at 3,
        # two non-last ones), and its norm is the peak, taken from the
        # maxima with no block read. An arrival round reads one block per
        # distance, in at most two products: the non-last blocks', then the
        # last block's. Round 1 reads block 0 everywhere (a hit at 1 and 3);
        # round 2 reads block 1 at distance 2 and the last block at 4
        peak_sigma, threshold = 0.9, 0.850256191055818
        miss, hit = self.miss_and_hit(peak_sigma, threshold)
        steps, last = 300, 2
        rounds = []
        block_norms = lattice._block_norms

        def spy(nodes, I, steps, blocks, cols):
            assert len(set(cols.tolist())) == len(cols)
            rounds.append([])
            for pairs, norms in block_norms(nodes, I, steps, blocks, cols):
                rounds[-1].append(sorted(set((blocks[pairs] == last).tolist())))
                yield pairs, norms

        monkeypatch.setattr(lattice, "_block_norms", spy)
        scan = self.scan_of([self.spikes(steps, {100: peak_sigma, 290: -peak_sigma}),
                             self.spikes(steps, {10: miss, 130: peak_sigma,
                                                 299: -peak_sigma}),
                             self.spikes(steps, {5: -peak_sigma, 200: peak_sigma}),
                             self.spikes(steps, {20: miss, 280: -hit, 290: peak_sigma,
                                                 299: -peak_sigma})],
                            threshold, monkeypatch)
        assert scan.peak.tolist() == [2.0 * math.sin(0.45)] * 4
        assert scan.t_arrival.tolist() == [50.0, 65.0, 2.5, 140.0]
        assert rounds == [[[False]], [[False], [True]]]

    def test_maxima_below_every_read_are_refused(self, monkeypatch):
        # doctored maxima: every block claims 1e-3 at distances 2 and 3,
        # whose node rows are zero, so their peak 2 sin(5e-4) makes them
        # live and no read reaches their arrival cut; distance 1, 0.9 at
        # step 200 under its true maxima, arrives. The arrival loop must
        # refuse, naming distance 2, not read block 0 again; a bounded spy
        # turns a loop that spins into a failure
        B = lattice._BLOCK_ROWS
        nodes = np.zeros((2, B, 4))
        nodes[1, 200 - B, 1] = 0.9
        maxima = np.abs(nodes).max(axis=1)
        maxima[:, 2:] = 1e-3
        reads = []
        block_norms = lattice._block_norms

        def bounded(*args):
            for read in block_norms(*args):
                reads.append(read)
                assert len(reads) <= 8, "the arrival loop spins"
                yield read

        monkeypatch.setattr(lattice, "_block_norms", bounded)
        with pytest.raises(LatticeError, match="^light-cone read: distance 2 has no "
                           "unread block whose maximum reaches its cut$"):
            lattice._cone_reads(2 * B, 0.5, nodes, np.eye(B), maxima)
        # round 1: block 0 at distances 2 and 3, block 1 at 1; round 2:
        # block 1 at 2 and 3. Each (block, distance) pair is read once
        assert len(reads) == 3

    def test_zero_subnormal_and_tiny_threshold_columns(self, monkeypatch):
        # a zero or subnormal column has no arrival; a threshold of 1e-300
        # puts threshold * peak below the normal range
        scan = self.scan_of([[0.0] * 6, [5e-324, -3e-310, 0.0, 1e-320, 0.0, 0.0],
                             [0.0, 3e-323, 1e-300, 0.5, -0.2, 0.1],
                             [0.0, 0.0, 1e-305, 9e-301, 0.8, 0.1]],
                            1e-300, monkeypatch)
        np.testing.assert_array_equal(scan.t_arrival, [np.nan, np.nan, 1.0, 1.5])
        # threshold * peak = 3 * 2^-1074, and 2 asin of it rounds up to
        # 4 * 2^-1074, while an entry 3 * 2^-1074 already has that norm
        threshold = 1.5e-323 / (2.0 * math.sin(0.45))
        scan = self.scan_of([[0.0, 1.5e-323, 0.9], [0.0, 1e-323, 0.9]],
                            threshold, monkeypatch)
        assert scan.t_arrival.tolist() == [0.5, 1.0]

    def test_zero_and_subnormal_columns_over_many_blocks(self, monkeypatch):
        # a zero or subnormal column reads every block and has no arrival;
        # a level below the normal range is found blocks after a subnormal
        steps = 700
        scan = self.scan_of([[0.0] * steps,
                             self.spikes(steps, {3: 5e-324, 300: -3e-310, 650: 1e-320}),
                             self.spikes(steps, {1: 3e-323, 280: 1e-300, 600: 0.5}),
                             self.spikes(steps, {255: 1e-305, 256: 9e-301, 699: -0.8})],
                            1e-300, monkeypatch)
        np.testing.assert_array_equal(scan.t_arrival, [np.nan, np.nan, 140.0, 128.0])
        assert scan.peak[:2].tolist() == [0.0, 2.0 * math.sin(3e-310 / 2.0)]


class TestFitLine:
    def test_fit_is_exact_under_power_of_two_time_scales(self):
        # the closed-form fit scales the times by a power of two, which
        # changes no rounding: times 2^k apart give the slope 2^-k apart,
        # bit for bit, even where the unscaled squares would overflow
        points = [(0.3, 1), (0.71, 2), (1.13, 3), (1.6, 4), (1.9, 5)]
        slope, intercept, residual = lattice._fit_line(points)
        t, r = np.array(points).T
        assert (slope, intercept) == pytest.approx(tuple(np.polyfit(t, r, 1)), rel=1e-12)
        for k in (-1000, -3, 7, 1000):
            scaled = [(math.ldexp(ti, k), ri) for ti, ri in points]
            assert lattice._fit_line(scaled) == (math.ldexp(slope, -k), intercept,
                                                 residual)

    @pytest.mark.parametrize("c", [0.0, 0.02, 20.0, 1e200])
    def test_fit_of_arrivals_at_one_time_is_the_least_norm_line(self, c):
        # every line through (c, mean r) fits; lstsq returns the least-norm one
        points = [(c, r) for r in (1, 2, 3, 5)]
        t, r = np.array(points).T
        design = np.vstack([t, np.ones_like(t)]).T
        slope, intercept = np.linalg.lstsq(design, r, rcond=None)[0]
        fit = lattice._fit_line(points)
        assert fit[:2] == pytest.approx((slope, intercept), rel=1e-12, abs=1e-300)
        assert fit[2] == pytest.approx(math.sqrt(np.mean((r - r.mean()) ** 2)), rel=1e-12)
