import math
import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from holderforms import grids
from holderforms.grids import (
    GridField,
    UnderResolvedError,
    _axis_seminorms,
    _lag_maximum,
    holder_seminorm,
    make_weierstrass,
    weierstrass_callable,
)
import helpers
from helpers import (
    _one_level_block_bounds, all_pairs, axis_pairs, lag_scan_one_level,
    matched_ends, pair_quotient, rolled, torus_distance,
)


def tent(x, lo=0.0, hi=1.0):
    """Distance from ``x`` to ``lo`` round the circle [lo, hi): slope 1 but
    for the kinks at ``lo`` and at the midpoint."""
    return np.minimum(x - lo, hi - x)


def tent_field(n=33):
    """0.5 - 2 |x - 1/2| on [0, 1], which is 2x - 0.5 on [0, 1/2]; ``n`` is
    odd, so the kinks lie on nodes and the interpolant is the function."""
    x = np.linspace(0.0, 1.0, n)
    return GridField((0.0,), (1.0,), (n,), 2.0 * tent(x) - 0.5)


def without_drift(vals):
    """``vals`` less the line through its end values along every axis, with
    matched ends: a random walk made periodic, its steps kept."""
    for ax, n in enumerate(vals.shape):
        ramp = np.linspace(0.0, 1.0, n).reshape(
            [-1 if a == ax else 1 for a in range(vals.ndim)])
        vals = vals - ramp * (np.take(vals, [-1], axis=ax)
                              - np.take(vals, [0], axis=ax))
    return matched_ends(vals)


class TestGridField:
    def test_bilinear_is_exact_on_linear_data(self):
        f = tent_field()
        x = np.array([0.0, 0.1234, 0.5, 0.7, 0.999, 1.0])
        np.testing.assert_allclose(f.evaluate(x[:, None]),
                                   0.5 - 2.0 * np.abs(x - 0.5), atol=1e-14)

    def test_scalar_like_queries(self):
        f = tent_field()
        assert f.evaluate(np.array([[0.25]]))[0] == pytest.approx(0.0)

    def test_periodic_wrap(self):
        n = 65
        x = np.linspace(0.0, 1.0, n)
        vals = np.sin(2 * np.pi * x)
        f = GridField((0.0,), (1.0,), (n,), vals)
        a = f.evaluate(np.array([[0.1]]))
        b = f.evaluate(np.array([[1.1]]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_queries_periods_away_wrap(self):
        # decay reads its iterates many periods off the window, on both
        # sides of it; each query lands on the node it wraps to
        vals = matched_ends(np.random.default_rng(4).standard_normal((9, 5)))
        f = GridField((0.0, 0.0), (1.0, 2.0), vals.shape, vals)
        nodes = np.array([[0.25, 0.5], [0.875, 1.5], [0.0, 0.0]])
        far = nodes + np.array([[11.0, -6.0], [-3.0, 8.0], [-1.0, 2.0]])
        want = vals[[2, 7, 0], [1, 3, 0]]
        np.testing.assert_array_equal(f.evaluate(nodes), want)
        np.testing.assert_allclose(f.evaluate(far), want, atol=1e-12)

    def test_periodic_endpoint_mismatch_rejected(self):
        vals = np.linspace(0.0, 1.0, 17)  # endpoints differ
        with pytest.raises(ValueError):
            GridField((0.0,), (1.0,), (17,), vals)

    @pytest.mark.parametrize("dim,shape", [
        (1, (2, 2)), (1, (5,)), (1, ()), (2, (3, 1)), (2, (3,)), (2, (4, 3)),
    ])
    def test_points_must_match_the_dimension(self, dim, shape):
        # planar points on a 1-D field would be read as two x coordinates
        f = tent_field() if dim == 1 else GridField(
            (0.0, 0.0), (1.0, 1.0), (5, 5), np.zeros((5, 5)))
        with pytest.raises(ValueError,
                           match=re.escape(f"(..., {dim}), got {shape}")):
            f.evaluate(np.full(shape, 0.5))

    def test_distance_uses_shortest_wrap(self):
        n = 33
        f = GridField((0.0,), (1.0,), (n,), np.zeros(n))
        d = torus_distance(f, np.array([[0.05]]), np.array([[0.95]]))
        assert d[0] == pytest.approx(0.1)

    def test_2d_bilinear_matches_a_tensor_of_tents(self):
        # tents in x and in y, kinked on nodes, are linear on each cell, so
        # the bilinear interpolant of 3 s + 0.5 t - s t is that function
        nx, ny = 21, 17
        x = tent(np.linspace(0.0, 1.0, nx))[:, None]
        y = tent(np.linspace(0.0, 2.0, ny), hi=2.0)[None, :]
        vals = 3.0 * x + 0.5 * y - x * y
        f = GridField((0.0, 0.0), (1.0, 2.0), (nx, ny), vals)
        pts = np.array([[0.3, 0.7], [0.95, 1.9], [0.0, 0.0], [-0.05, 2.1]])
        s, t = tent(pts[:, 0] % 1.0), tent(pts[:, 1] % 2.0, hi=2.0)
        want = 3.0 * s + 0.5 * t - s * t
        np.testing.assert_allclose(f.evaluate(pts), want, atol=1e-13)


class TestHolderSeminorm:
    def test_lipschitz_line_has_unit_slope(self):
        f = tent_field(129)
        est = holder_seminorm(f, 1.0)
        assert est.seminorm == pytest.approx(2.0, rel=1e-12)

    def test_theta_must_be_in_range(self):
        f = tent_field()
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                holder_seminorm(f, bad)

    def test_root_singularity_seminorm(self):
        # f = sqrt(d(x, 0)) has H_{1/2} = 1, attained at pairs touching 0:
        # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), and |d(x, 0) - d(y, 0)|
        # is at most d(x, y)
        n = 513
        x = np.linspace(0.0, 1.0, n)
        f = GridField((0.0,), (1.0,), (n,), np.sqrt(tent(x)))
        est = holder_seminorm(f, 0.5)
        assert est.seminorm == pytest.approx(1.0, rel=1e-9)

    def test_cnorm_is_sup_plus_seminorm(self):
        f = tent_field(65)
        est = holder_seminorm(f, 1.0)
        assert est.cnorm == pytest.approx(est.supnorm + est.seminorm)

    @pytest.mark.parametrize("seed", range(40))
    def test_1d_node_maximum_is_the_interpolant_seminorm(self, seed):
        # no pair among 400 off-grid points and the nodes beats the node
        # maximum of the piecewise-linear interpolant
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        theta = float(rng.uniform(0.1, 0.95))
        vals = rng.standard_normal(n)
        vals[-1] = vals[0]
        f = GridField((0.0,), (1.0,), (n,), vals)
        est = holder_seminorm(f, theta).seminorm
        x = np.concatenate([rng.uniform(0.0, 1.0, 400),
                            np.linspace(0.0, 1.0, n)])[:, None]
        v = f.evaluate(x)
        d = torus_distance(f, x[:, None, :], x[None, :, :])
        apart = d > 0.0
        ratio = np.abs(v[:, None] - v[None, :])[apart] / d[apart] ** theta
        assert np.max(ratio) <= est * (1.0 + 1e-12)

    def test_2d_bound_is_sharp_on_the_tent(self):
        # the tent 1 at the centre of a 3 x 3 torus grid, 0 elsewhere: each
        # axis gives 2 at theta = 1, and along the diagonal from the peak
        # the interpolant is (1 - 2t)^2, whose slope there is 2 sqrt(2)
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0
        f = GridField((0.0, 0.0), (1.0, 1.0), (3, 3), vals)
        assert _axis_seminorms(f, 1.0) == [2.0, 2.0]
        assert holder_seminorm(f, 1.0).seminorm == 2.0 * math.sqrt(2.0)
        t = 0.5 + 1e-6
        ratio = ((f.evaluate([0.5, 0.5]) - f.evaluate([t, t]))
                 / torus_distance(f, np.array([0.5, 0.5]), np.array([t, t])))
        assert float(ratio[0]) == pytest.approx(2.0 * math.sqrt(2.0),
                                                rel=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(res=st.tuples(st.integers(3, 8), st.integers(3, 8)),
           theta=st.floats(0.1, 1.0), scaled=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_2d_bound_covers_the_interpolant(self, res, theta, scaled, seed):
        # the interpolant's own quotient over a lattice of 16 points per
        # cell and axis, which holds every node, never exceeds U
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-1.0, 1.0, 2)
        hi = lo + rng.uniform(0.1, 3.0, 2)
        vals = rng.standard_normal(res)
        if scaled:  # columns of very different steepness
            vals *= rng.uniform(0.01, 10.0, res[1])
        f = GridField(tuple(lo), tuple(hi), res, matched_ends(vals))
        est = holder_seminorm(f, theta).seminorm
        assert est >= max(_axis_seminorms(f, theta))
        assert lattice_quotient(f, theta, 16) <= est * (1.0 + 1e-12)

    def test_2d_bound_on_a_diagonal_weierstrass_field(self):
        # every column and row of W(x + y) is a roll of the 1-D W, so both
        # axes give its seminorm s, and U = 2^(1 - theta/2) s
        w = weierstrass_callable(0.5, 2, 7)
        f = GridField.from_function(lambda x, y: w(x + y), (0.0, 0.0),
                                    (1.0, 1.0), (257, 257))
        s = holder_seminorm(make_weierstrass(0.5, 2, 7, 257), 0.5).seminorm
        assert holder_seminorm(f, 0.5).seminorm == pytest.approx(
            2.0 ** 0.75 * s, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 50.0), seed=st.integers(0, 10))
    def test_scale_equivariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        vals = matched_ends(rng.standard_normal(64))
        f = GridField((0.0,), (1.0,), (64,), vals)
        g = GridField((0.0,), (1.0,), (64,), scale * vals)
        a = holder_seminorm(f, 0.7).seminorm
        b = holder_seminorm(g, 0.7).seminorm
        assert b == pytest.approx(scale * a, rel=1e-12)


@st.composite
def lag_grids(draw, dim=None):
    """Small random grids: noise, y-constant (pruned) or tilted (not pruned)."""
    dim = draw(st.sampled_from([1, 2])) if dim is None else dim
    res = (draw(st.integers(2, 24)),) + (
        (draw(st.integers(2, 10)),) if dim == 2 else ())
    kind = draw(st.sampled_from(["noise", "y_constant", "tilted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-1.0, 1.0, dim)
    hi = lo + rng.uniform(0.1, 3.0, dim)
    vals = rng.standard_normal(res)
    if kind == "y_constant" and dim == 2:
        vals = np.repeat(vals[:, :1], res[1], axis=1)
    elif kind == "tilted":
        # steep tents, linear but at two kinks per axis: the largest
        # quotients sit on off-axis lags
        axes = np.meshgrid(*(tent(np.linspace(lo[a], hi[a], res[a]),
                                  lo[a], hi[a])
                             for a in range(dim)), indexing="ij")
        slope = rng.uniform(-20.0, 20.0, dim)
        vals = 1e-3 * vals + sum(s * x for s, x in zip(slope, axes))
    return GridField(tuple(lo), tuple(hi), res, matched_ends(vals))


@st.composite
def block_grids(draw):
    """Grids spanning several scan blocks: spikes beside block edges,
    random walks, constant and y-constant fields."""
    dim = draw(st.sampled_from([1, 2]))
    res = ((draw(st.integers(2, 300)),) if dim == 1
           else (draw(st.integers(2, 40)), draw(st.integers(2, 40))))
    kind = draw(st.sampled_from(["spikes", "walk", "constant", "y_constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = rng.uniform(-1.0, 1.0, dim)
    hi = lo + rng.uniform(0.1, 3.0, dim)
    walk = without_drift(rng.standard_normal(res).cumsum(axis=0))
    if kind == "spikes":
        vals = 1e-3 * rng.standard_normal(res)
        for _ in range(draw(st.integers(1, 3))):
            # the last node of a block or the first of the next
            idx = tuple(min(n - 1, max(0, grids._BLOCK * int(
                rng.integers(0, n // grids._BLOCK + 1))
                - int(rng.integers(0, 2)))) for n in res)
            vals[idx] += rng.uniform(-5.0, 5.0)
    elif kind == "walk":
        vals = without_drift(walk.cumsum(axis=-1)) if dim == 2 else walk
    elif kind == "constant":
        vals = np.full(res, rng.uniform(-2.0, 2.0))
    else:
        vals = np.repeat(walk[:, :1], res[1], axis=1) if dim == 2 else walk
    return GridField(tuple(lo), tuple(hi), res, matched_ends(vals))


thetas = st.floats(0.05, 1.0, exclude_min=True)


def coordinate_quotient(f, theta, pairs):
    """Largest quotient over ``pairs``, with distances from
    ``torus_distance`` on node coordinates: a reference independent of the
    scan's lag distances, equal to them up to rounding."""
    axes = [np.linspace(f.lo[a], f.hi[a], f.resolution[a])
            for a in range(f.dim)]
    coords = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")],
                      axis=1)
    vals = f.values.ravel()
    d = torus_distance(f, coords[pairs[:, 0]], coords[pairs[:, 1]])
    diff = np.abs(vals[pairs[:, 0]] - vals[pairs[:, 1]])
    mask = d > 0.0
    return float(np.max(diff[mask] / d[mask] ** theta)) if mask.any() else 0.0


def lattice_quotient(f, theta, per_cell):
    """Exact largest quotient of the interpolant of the 2-D field ``f`` over
    the pairs of a lattice of ``per_cell`` points per cell and axis on its
    torus, with torus distances: a lower bound for the interpolant's
    seminorm."""
    axes = [f.lo[a] + (f.hi[a] - f.lo[a]) * np.arange(per_cell * (n - 1))
            / (per_cell * (n - 1)) for a, n in enumerate(f.resolution)]
    v = f.evaluate(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    nx, ny = v.shape
    d = [np.minimum(k, n - k) * (f.hi[a] - f.lo[a]) / n
         for a, (k, n) in enumerate(((np.arange(nx), nx),
                                     (np.arange(ny), ny)))]
    best = 0.0
    # lags (kx, ky) and (-kx, -ky) join the same pairs, so kx <= nx / 2
    for kx in range(nx // 2 + 1):
        shifted = np.roll(v, -kx, axis=0)
        # moved[i, ky, j] = v[i + kx, j + ky], round the torus
        moved = sliding_window_view(np.concatenate([shifted, shifted],
                                                   axis=1), ny, axis=1)[:, :ny]
        m = np.abs(moved - v[:, None, :]).max(axis=(0, 2))
        dist = np.hypot(d[0][kx], d[1])
        apart = dist > 0.0
        if apart.any():
            best = max(best, float(np.max(m[apart] / dist[apart] ** theta)))
    return best


def assert_axis_maxima_equal_the_axis_pairs(f, theta):
    """Each ``S_a`` is the maximum over the pairs along axis ``a``, bit for
    bit, and their coordinate quotient up to rounding; in 1-D the seminorm
    is the all-pairs maximum."""
    scans = _axis_seminorms(f, theta)
    for ax, scan in enumerate(scans):
        pairs = axis_pairs(f, ax)
        assert scan == pair_quotient(f, theta, pairs)
        assert scan == pytest.approx(coordinate_quotient(f, theta, pairs),
                                     rel=1e-12)
    if f.dim == 1:
        assert holder_seminorm(f, theta).seminorm == scans[0] == \
            pair_quotient(f, theta, all_pairs(f))


class TestLagScan:
    @settings(max_examples=80, deadline=None)
    @given(f=lag_grids(), theta=thetas)
    def test_axis_maxima_equal_the_axis_pairs(self, f, theta):
        assert_axis_maxima_equal_the_axis_pairs(f, theta)

    @settings(max_examples=60, deadline=None)
    @given(f=block_grids(), theta=st.one_of(st.just(1.0), thetas))
    def test_pruned_axis_maxima_equal_the_axis_pairs(self, f, theta):
        assert_axis_maxima_equal_the_axis_pairs(f, theta)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_unequal_periodic_ends_are_matched(self, theta):
        # equal columns, but the x ends differ by a rounding-sized step:
        # across the seam they sit at distance 0, so the field stores its
        # last node as its first, and the interpolant has no jump there
        # that the scan, which takes no quotient at distance 0, would miss
        vals = np.full((9, 17), 0.25)
        vals[-1] += 1e-11
        f = GridField((0.0, 0.0), (1.0, 0.01), vals.shape, vals)
        assert f.values[-1].tolist() == f.values[0].tolist()
        assert vals[-1, 0] == 0.25 + 1e-11  # the given samples are copied
        snapped = GridField((0.0, 0.0), (1.0, 0.01), vals.shape,
                            np.full((9, 17), 0.25))
        assert holder_seminorm(f, theta) == holder_seminorm(snapped, theta)
        assert holder_seminorm(f, theta).seminorm == 0.0

    def test_cli_field_evaluates_few_lags_exactly(self, monkeypatch):
        shapes = []
        evaluate = grids._lag_maximum

        def counting(v, k, out):
            shapes.append(v.shape)
            return evaluate(v, k, out)

        monkeypatch.setattr(grids, "_lag_maximum", counting)
        holder_seminorm(make_weierstrass(0.5, 2, 8, 2048), 0.5)
        assert 0 < len(shapes) < 0.1 * 2047
        assert set(shapes) == {(2048, 1)}

    @settings(max_examples=40, deadline=None)
    @given(f=lag_grids(), theta=thetas, seed=st.integers(0, 2**32 - 1))
    def test_bounds_every_pair_subset(self, f, theta, seed):
        # in 2-D too, pairs off the axes included: U bounds the
        # interpolant, whose values at the nodes are the samples
        pairs = all_pairs(f)
        rng = np.random.default_rng(seed)
        subset = pairs[rng.random(len(pairs)) < rng.uniform(0.05, 1.0)]
        if len(subset) == 0:
            return
        scan = holder_seminorm(f, theta).seminorm
        # in 1-D the reference divides by the scan's own lag distances
        if f.dim == 1:
            assert scan >= pair_quotient(f, theta, subset)
        # k*h lag distances and coordinate differences agree to rounding
        assert scan * (1 + 1e-12) >= coordinate_quotient(f, theta, subset)

    @pytest.mark.parametrize("ax", [0, 1])
    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_pair_across_the_periodic_seam_uses_the_wrapped_lag(self, ax,
                                                                theta):
        # nodes 1 and n-2 are 2h apart across the seam, (n-3)h apart inside
        n, h = 9, 1.0 / 8
        line = np.zeros(n)
        line[1], line[n - 2] = 1.0, -1.0
        vals = np.tile(line, (3, 1))
        if ax == 0:
            vals = vals.T
        f = GridField((0.0, 0.0), (1.0, 1.0), vals.shape, vals)
        assert holder_seminorm(f, theta).seminorm == pytest.approx(
            2.0 / (2.0 * h) ** theta, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), theta=thetas)
    def test_rolling_a_periodic_axis_leaves_it_unchanged(self, data, theta):
        dim = data.draw(st.sampled_from([1, 2]))
        ax = data.draw(st.integers(0, dim - 1))
        f = data.draw(lag_grids(dim=dim))
        n = f.resolution[ax]
        shift = data.draw(st.integers(0, n - 2))
        body = np.roll(np.take(f.values, range(n - 1), axis=ax), shift, axis=ax)
        rolled = np.concatenate([body, np.take(body, [0], axis=ax)], axis=ax)
        g = GridField(f.lo, f.hi, f.resolution, rolled)
        assert holder_seminorm(g, theta).seminorm == pytest.approx(
            holder_seminorm(f, theta).seminorm, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(f=lag_grids(dim=1), theta=thetas, ny=st.integers(2, 10))
    def test_constant_extension_keeps_the_1d_value(self, f, theta, ny):
        # every column of the extension is the 1-D field, so S_0 is its
        # value, and S_1 is 0, so U is S_0 itself
        g = GridField((f.lo[0], 0.0), (f.hi[0], 1.0), (f.resolution[0], ny),
                      np.repeat(f.values[:, None], ny, axis=1))
        assert holder_seminorm(g, theta).seminorm.hex() == \
            holder_seminorm(f, theta).seminorm.hex()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 24), ny=st.integers(1, 10),
           odd=st.one_of(st.none(), st.integers(0, 9)),
           seed=st.integers(0, 2**32 - 1))
    def test_equal_columns_scan_like_all_columns(self, n, ny, odd, seed):
        # identical columns, or identical but for one column (odd)
        rng = np.random.default_rng(seed)
        v = np.repeat(rng.standard_normal((n, 1)), ny, axis=1)
        if odd is not None:
            v[rng.integers(n), odd % ny] += rng.uniform(-2.0, 2.0)
        naive = [max(abs(v[i + k, j] - v[i, j])
                     for i in range(n - k) for j in range(ny))
                 for k in range(1, n)]
        out = np.empty_like(v)
        assert [_lag_maximum(v, k, out) for k in range(1, n)] == naive


def long_field(n, kind, seed):
    """A 1-D field of ``n`` nodes on [0, 1]: noise with matched ends or a
    Weierstrass sum."""
    if kind == "noise":
        vals = matched_ends(np.random.default_rng(seed).standard_normal(n))
    else:
        terms = int(np.log2(n // 4)) + 1
        vals = make_weierstrass(0.3 + 0.6 * (seed % 7) / 6, 2, terms,
                                n).values
    return GridField((0.0,), (1.0,), (n,), vals)


def all_pairs_seminorm(f, theta, chunk=1 << 19):
    """``pair_quotient`` over all pairs, a bounded chunk at a time."""
    pairs = all_pairs(f)
    return max(pair_quotient(f, theta, pairs[i:i + chunk])
               for i in range(0, len(pairs), chunk))


def long_2d_field(kind, ax):
    """A torus field of 8200 x 6 nodes, or 6 x 8200 if ``ax`` is 1: ridges
    along the long axis with a random walk across it, or a random walk
    along both axes."""
    rng = np.random.default_rng(11)
    if kind == "ridges":
        x = np.linspace(0.0, 1.0, 8200)[:, None]
        vals = (np.sin(80.0 * np.pi * x)
                + 0.3 * rng.standard_normal((8200, 6)).cumsum(axis=1))
    else:
        vals = rng.standard_normal((8200, 6)).cumsum(axis=0).cumsum(axis=1)
    vals = without_drift(vals)
    if ax == 1:
        vals = vals.T.copy()
    return GridField((0.0, 0.0), (1.0, 0.5), vals.shape, vals)


class TestTwoLevelScan:
    """``_axis_seminorm`` against the one-level scan it refines, on axes of
    more than ``_FEW_TILES`` tiles, where coarse tiles bound lag blocks
    first, and on axes near that size."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(600, 20000),
           kind=st.sampled_from(["noise", "weierstrass"]),
           theta=st.one_of(st.just(1.0), thetas),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_one_level_scan(self, n, kind, theta, seed):
        f = long_field(n, kind, seed)
        assert holder_seminorm(f, theta).seminorm == \
            lag_scan_one_level(f, theta)

    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(600, 3000),
           kind=st.sampled_from(["noise", "weierstrass"]),
           theta=st.one_of(st.just(1.0), thetas),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_all_pairs_maximum(self, n, kind, theta, seed):
        f = long_field(n, kind, seed)
        assert holder_seminorm(f, theta).seminorm == \
            all_pairs_seminorm(f, theta)

    @settings(max_examples=60, deadline=None)
    @given(f=block_grids(), data=st.data())
    def test_bounds_equal_the_one_level_bounds(self, f, data):
        # the whole table, and any window of it, bit for bit, on each axis
        ax = data.draw(st.integers(0, f.dim - 1))
        v = np.moveaxis(f.values, ax, 0).reshape(f.resolution[ax], -1)
        hi, lo = grids._tile_extrema(v, v)
        tx = len(hi)
        full = grids._block_bounds(hi, lo, 0, tx)
        np.testing.assert_array_equal(full, _one_level_block_bounds(v))
        x0 = data.draw(st.integers(0, tx - 1))
        wx = data.draw(st.integers(1, 9))
        part = grids._block_bounds(hi, lo, x0, wx)
        np.testing.assert_array_equal(part[:tx - x0], full[x0:x0 + wx])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_coarse_bounds_cover_every_lag(self, data):
        dim = data.draw(st.sampled_from([1, 2]))
        res = ((data.draw(st.integers(65, 1500)),) if dim == 1 else
               (data.draw(st.integers(65, 600)),
                data.draw(st.integers(2, 40))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.standard_normal(res).cumsum(axis=0).reshape(res[0], -1)
        if data.draw(st.booleans()):  # spikes
            v = 1e-3 * v
            for _ in range(3):
                v[tuple(rng.integers(0, n) for n in v.shape)] += 5.0
        coarse = grids._block_bounds(*grids._tile_extrema(
            *grids._tile_extrema(v, v)), 0, -(-len(v) // 64))
        out = np.empty_like(v)
        for k in range(len(v)):
            assert _lag_maximum(v, k, out) <= coarse[k // 64]

    @pytest.mark.parametrize("n", [8192, 8193, 8200])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_either_side_of_the_coarse_level(self, n, theta):
        # 8192 nodes make 1024 tiles, one level; 8193 make 1025, two
        f = long_field(n, "weierstrass", 3)
        assert holder_seminorm(f, theta).seminorm == \
            lag_scan_one_level(f, theta)

    @pytest.mark.parametrize("kind", ["ridges", "walk"])
    @pytest.mark.parametrize("ax", [0, 1])
    @pytest.mark.parametrize("seam", [False, True])
    @pytest.mark.parametrize("theta", [0.2, 1.0])
    def test_2d_fields_with_coarse_tiles(self, kind, ax, seam, theta):
        # 8200 nodes along axis ax make 1025 tiles and 129 coarse tiles;
        # with a seam, the field is rolled by half its nodes along that
        # axis, which moves every lag's differences across the seam and
        # keeps each axis maximum of the torus field
        f = long_2d_field(kind, ax)
        scans = _axis_seminorms(f, theta)
        if seam:
            shift = [0, 0]
            shift[ax] = f.resolution[ax] // 2
            f = GridField(f.lo, f.hi, f.resolution, rolled(f.values, shift))
            assert _axis_seminorms(f, theta) == scans
        assert f.resolution[ax] // grids._BLOCK > grids._FEW_TILES
        assert scans == [lag_scan_one_level(f, theta, a) for a in (0, 1)]

    def test_coarse_blocks_prune_most_lags(self, monkeypatch):
        # 16384 nodes: 256 coarse lag blocks of 64 lags; few get fine bounds
        windows = []
        ranked = grids._ranked_lags

        def counting(hi, lo, dpow, *window):
            windows.append(window)
            return ranked(hi, lo, dpow, *window)

        monkeypatch.setattr(grids, "_ranked_lags", counting)
        f = make_weierstrass(0.5, 2, 12, 16384)
        assert holder_seminorm(f, 0.5).seminorm == \
            lag_scan_one_level(f, 0.5)
        assert 0 < len(windows) < 0.1 * 256
        assert {w[1] for w in windows} == {grids._BLOCK}

    @pytest.mark.parametrize("kind", ["weierstrass", "noise", "walk"])
    def test_evaluates_the_lags_the_one_level_scan_does(self, kind,
                                                         monkeypatch):
        # best first: a block is refined before any lag it may outrank is
        # evaluated, so no lag is evaluated that one level would skip
        if kind == "walk":
            f = long_2d_field("walk", 0)
        else:
            f = long_field(16384 if kind == "weierstrass" else 9000, kind, 2)
        lags = {"two": [], "one": []}

        def recording(name, fn):
            def evaluate(v, k, *out):
                lags[name].append((v.shape, k))
                return fn(v, k, *out)
            return evaluate

        monkeypatch.setattr(grids, "_lag_maximum",
                            recording("two", grids._lag_maximum))
        monkeypatch.setattr(helpers, "_one_level_lag_maximum",
                            recording("one", helpers._one_level_lag_maximum))
        assert _axis_seminorms(f, 0.5) == [lag_scan_one_level(f, 0.5, a)
                                           for a in range(f.dim)]
        assert sorted(lags["two"]) == sorted(lags["one"])


class TestWeierstrass:
    def test_value_at_origin_is_the_cosine_sum(self):
        w = weierstrass_callable(0.5, 2, 8)
        want = sum(2.0 ** (-0.5 * k) for k in range(8))
        assert w(np.array([0.0]))[0] == pytest.approx(want, abs=1e-14)

    def test_grid_agrees_with_callable_on_nodes(self):
        f = make_weierstrass(0.5, 2, 6, 256)
        w = weierstrass_callable(0.5, 2, 6)
        x = np.linspace(0.0, 1.0, 256)
        np.testing.assert_allclose(f.values, w(x), atol=1e-12)

    def test_underresolved_grid_rejected(self):
        with pytest.raises(UnderResolvedError):
            make_weierstrass(0.5, 2, 8, 64)

    def test_periodicity(self):
        w = weierstrass_callable(0.4, 3, 4)
        x = np.array([0.13, 0.57])
        np.testing.assert_allclose(w(x), w(x + 1.0), atol=1e-12)

    def test_seminorm_stable_under_resolution_doubling(self):
        a = holder_seminorm(make_weierstrass(0.5, 2, 8, 1024), 0.5).seminorm
        b = holder_seminorm(make_weierstrass(0.5, 2, 8, 2048), 0.5).seminorm
        assert abs(a - b) / b < 0.1

