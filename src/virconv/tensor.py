"""Sparse voxel tensor: integer index rows paired with a feature matrix.

The core data structure is an N x 3 integer index array plus an N x C feature
matrix. Storage axis order is (x, y, z) everywhere; whenever an ordering
matters, ties break lexicographically so there is no hidden nondeterminism
from hash iteration.

Tensors are immutable after construction; all operations here are pure reads.
"""

from dataclasses import dataclass

import numpy as np

# Flag values for per-voxel point provenance.
ORIGIN_LIDAR = 0
ORIGIN_VIRTUAL = 1
ORIGIN_MIXED = 2


def origin_flags_of(virtual_frac) -> np.ndarray:
    """Provenance flag per voxel from the virtual share of its points:
    < 0.5 LiDAR, > 0.5 virtual, exactly 0.5 mixed."""
    return np.where(virtual_frac < 0.5, ORIGIN_LIDAR,
                    np.where(virtual_frac > 0.5, ORIGIN_VIRTUAL, ORIGIN_MIXED)).astype(np.int8)


# 3x3x3 neighborhood offsets, lexicographic over (dz, dy, dx). Row k of a
# 27-offset kernel stack corresponds to OFFSETS_3D[k]. Center is row 13.
OFFSETS_3D = np.array(
    [(dx, dy, dz) for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)],
    dtype=np.int64,
)
CENTER_3D = 13

# 3x3 neighborhood offsets over 2D cells, lexicographic over (dv, du).
OFFSETS_2D = np.array(
    [(du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1)], dtype=np.int64
)

# Sentinel 2D index for voxels whose projection is invalid (behind camera).
INVALID_2D = np.iinfo(np.int64).min


@dataclass(frozen=True)
class VoxelGridSpec:
    """Geometry of the voxel grid a tensor lives on.

    origin: metric position of the corner of voxel (0,0,0), meters.
    voxel_size: level-0 edge lengths, meters; the effective cell size at this
        level is voxel_size * stride_level.
    extent: voxel counts per axis at this level.
    stride_level: power-of-two downsampling factor relative to level 0.
    """

    origin: tuple
    voxel_size: tuple
    extent: tuple
    stride_level: int = 1

    def __post_init__(self):
        if len(self.origin) != 3 or len(self.voxel_size) != 3 or len(self.extent) != 3:
            raise ValueError("origin, voxel_size and extent must all be 3-vectors")
        if any(s <= 0 for s in self.voxel_size):
            raise ValueError("voxel_size components must be positive")
        if any(e <= 0 for e in self.extent):
            raise ValueError("extent components must be positive")
        if self.stride_level < 1 or self.stride_level & (self.stride_level - 1):
            raise ValueError("stride_level must be a power of two >= 1")
        ex, ey, ez = (int(e) + 2 for e in self.extent)
        if ex * ey * ez > np.iinfo(np.int64).max:
            raise ValueError(
                f"extent {tuple(self.extent)} overflows int64 site keys: "
                f"the padded product {ex}*{ey}*{ez} must stay below 2**63"
            )

    @property
    def cell_size(self) -> np.ndarray:
        """Effective metric cell size at this stride level."""
        return np.asarray(self.voxel_size, dtype=np.float64) * self.stride_level

    def downsampled(self) -> "VoxelGridSpec":
        """Spec one stride level down: doubled stride, halved (ceil) extent."""
        ex, ey, ez = self.extent
        return VoxelGridSpec(
            origin=self.origin,
            voxel_size=self.voxel_size,
            extent=((ex + 1) // 2, (ey + 1) // 2, (ez + 1) // 2),
            stride_level=self.stride_level * 2,
        )


def _inside_extent(indices, extent) -> np.ndarray:
    """Mask of (N, 3) index rows with 0 <= index < extent on every axis.

    One unsigned compare per axis: a negative coordinate wraps above any
    extent.
    """
    u = np.ascontiguousarray(indices, dtype=np.int64).view(np.uint64)
    return ((u[:, 0] < np.uint64(extent[0])) & (u[:, 1] < np.uint64(extent[1]))
            & (u[:, 2] < np.uint64(extent[2])))


def _index_rows(rows, name) -> np.ndarray:
    """rows as a contiguous (N, 3) int64 array; an empty array of any shape is
    zero rows. Raises ValueError for any other shape."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.size == 0:
        return rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"{name} must be an (N, 3) array, got shape {rows.shape}")
    return rows


def _padded_keys(indices, extent) -> np.ndarray:
    """Scalar keys of (N, 3) index rows on the extent padded by one voxel per
    side: ((x+1)(ey+2) + y+1)(ez+2) + z+1.

    Keys ascend with the lexicographic (x, y, z) order of the rows. For a row
    i inside the extent and any d in {-1, 0, 1}^3, key(i + d) = key(i) +
    key(d) - key(0), and i + d never aliases another site across the grid
    edge. VoxelGridSpec keeps the padded key space inside int64.
    """
    ey, ez = int(extent[1]) + 2, int(extent[2]) + 2
    return ((indices[:, 0] + 1) * ey + indices[:, 1] + 1) * ez + indices[:, 2] + 1


def _key_rows(keys, extent) -> np.ndarray:
    """(N, 3) index rows of padded keys: the inverse of _padded_keys."""
    ey, ez = int(extent[1]) + 2, int(extent[2]) + 2
    rows = np.empty((len(keys), 3), dtype=np.int64)
    rows[:, 0], rest = np.divmod(keys, ey * ez)
    rows[:, 1], rows[:, 2] = np.divmod(rest, ez)
    rows -= 1
    return rows


BLOCK_ROWS = 1 << 14   # rows per block where point_keys and site_means stream


def point_keys(points, spec) -> np.ndarray:
    """Padded key (_padded_keys) of the voxel of each (x, y, z, ...) row of
    the float points, 0 for a point outside spec.extent. The voxel index is
    floor((xyz - origin) / cell size), clipped to [-1, extent] in float so
    that far points cast without overflow. One axis at a time over blocks of
    BLOCK_ROWS rows through reused columns, so no (N, 3) index block or N-long
    scratch is built and each element sees the broadcast formula's float ops.
    """
    keys = np.zeros(len(points), dtype=np.int64)
    col, idx = np.empty(BLOCK_ROWS), np.empty(BLOCK_ROWS, dtype=np.int64)
    for s in range(0, len(points), BLOCK_ROWS):
        k = keys[s:s + BLOCK_ROWS]
        c, i, outside = col[:len(k)], idx[:len(k)], np.zeros(len(k), dtype=bool)
        for a, cs in enumerate(spec.cell_size):
            e = int(spec.extent[a])
            np.subtract(points[s:s + BLOCK_ROWS, a], spec.origin[a], out=c)
            c /= cs
            np.clip(np.floor(c, out=c), -1.0, e, out=c)
            i[...] = c
            outside |= i.view(np.uint64) >= np.uint64(e)   # -1 wraps above e
            k *= e + 2
            k += i
            k += 1
        k[outside] = 0
    return keys


def _group(keys, extent) -> tuple:
    """(runs, perm, starts) of (N,) padded keys on extent, overwriting keys:
    keys[perm] ascends with ties in row order, starts[j] is where its j-th
    run of equal keys begins, and runs[j] is that run's key. Strictly rising
    keys are the runs. Any other keys, rising with repeats or not, are sorted:
    with r = N.bit_length(), key << r | row is sorted in place (high bits the
    keys, low r bits perm) when the largest padded key's bit length plus r is
    at most 63; past that, a stable argsort. The packed buffer becomes perm:
    no sorted-key column is live beside it."""
    n = len(keys)
    r = n.bit_length()
    ex, ey, ez = (int(e) + 2 for e in extent)
    if np.all(keys[1:] > keys[:-1]):   # unique sites: each key is its own run
        return keys, np.arange(n), np.arange(n)
    if (ex * ey * ez - 1).bit_length() + r <= 63:
        keys <<= r
        keys |= np.arange(n)
        keys.sort()
        perm = None
    else:
        perm, r = np.argsort(keys, kind="stable"), 0
        keys = keys[perm]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.greater(keys[1:] ^ keys[:-1], (1 << r) - 1, out=new[1:])   # where the high bits change
    starts = np.flatnonzero(new)
    runs = keys[starts] >> r
    if perm is None:
        keys &= (1 << r) - 1
        perm = keys
    return runs, perm, starts


def site_means(keys, values, spec) -> tuple:
    """(sites, means): the distinct nonzero (N,) padded keys on spec.extent as
    (M, 3) index rows in ascending order, and per site the mean of each column
    of the (N, C) values over its rows. Key 0 marks a row to drop; C may be 0;
    keys is overwritten. _group sorts with ties in row order; over blocks of
    the sorted order cut at run starts, its perm becomes in place each row's
    run, put in the high bits of the row's own slot, whose low bits still hold
    a sorted row. np.add.at sums over blocks of rows, so each run adds its
    rows in row order from zero, as one np.bincount over all N would."""
    n, r = len(keys), len(keys).bit_length()
    runs, perm, starts = _group(keys, spec.extent)
    drop = int(len(runs) > 0 and runs[0] == 0)   # key 0 sorts first
    sites = _key_rows(runs[drop:], spec.extent)
    bounds = np.append(starts, n)
    sizes = np.diff(bounds)
    cuts = np.unique(np.append(np.searchsorted(bounds, np.arange(0, n, BLOCK_ROWS)), len(sizes)))
    for a, b in zip(cuts[:-1], cuts[1:]):
        rows = perm[bounds[a]:bounds[b]] & ((1 << r) - 1)
        perm[rows] = perm[rows] & ((1 << r) - 1) | np.repeat(np.arange(a, b), sizes[a:b]) << r
    perm >>= r
    sums = np.zeros((values.shape[1], len(sizes)))
    for s in range(0, n, BLOCK_ROWS):
        for j, col in enumerate(sums):
            np.add.at(col, perm[s:s + BLOCK_ROWS], values[s:s + BLOCK_ROWS, j])
    means = np.ascontiguousarray(sums.T[drop:])
    means /= sizes[drop:, None]
    return sites, means


class SparseVoxelTensor:
    """Immutable (indices, features) pair of a sparse voxel grid.

    indices: (N, 3) int64, unique rows, all within the grid extent.
    features: (N, C) float64, finite.
    origin_flags: optional (N,) int8 in {ORIGIN_LIDAR, ORIGIN_VIRTUAL,
        ORIGIN_MIXED}, tracking point provenance per voxel.

    Every site lookup goes through sorted _padded_keys: a query row is keyed
    once, and pairs_at makes one searchsorted per (dx, dy) column of offsets,
    then walks up the column, where padded keys step by 1 in z. _self_pairs
    searches a column-complete half and mirrors it, for both submanifold maps:
    the 27-offset kernel map of the sites, and the 9-offset map of the pixel
    cells in cell_map. sorted_keys rebuilds the keys on each call; the two maps
    are built lazily, once per site set (and h2d), and cached: `with_features`
    shares them, while `take_rows` and every new tensor start without.
    """

    def __init__(self, indices, features, spec, origin_flags=None, _validate=True):
        indices = _index_rows(indices, "indices")
        features = np.ascontiguousarray(features, dtype=np.float64)
        if origin_flags is not None:
            origin_flags = np.ascontiguousarray(origin_flags)
        if _validate:   # before the int8 cast, which would wrap 258 to 2
            _validate_tensor(indices, features, spec, origin_flags)
        self.spec = spec
        self.indices = indices
        self.features = features
        self.origin_flags = origin_flags
        self.indices.setflags(write=False)
        self.features.setflags(write=False)
        if origin_flags is not None:
            self.origin_flags = origin_flags.astype(np.int8, copy=False)
            self.origin_flags.setflags(write=False)
        self._kernel_map = None
        self._cell_map = None   # (read-only copy of h2d, cell map)
        if _validate:
            _, order, starts = _group(_padded_keys(indices, spec.extent), spec.extent)
            if len(starts) < self.n:   # the first row of the first repeated key
                dup = order[starts[np.argmax(np.diff(starts, append=self.n) > 1)]]
                raise ValueError(f"duplicate voxel index {tuple(int(v) for v in indices[dup])}")

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def linear_keys(self) -> np.ndarray:
        """Collision-free unpadded scalar keys (x*ey + y)*ez + z of the
        sites; a stable hash of a site set."""
        indices = self.indices
        ex, ey, ez = self.spec.extent
        return (indices[:, 0] * ey + indices[:, 1]) * ez + indices[:, 2]

    def sorted_keys(self):
        """(sorted padded keys, row order) of the unique sites, built on each call."""
        return _group(_padded_keys(self.indices, self.spec.extent), self.spec.extent)[:2]

    def _locate(self, skeys, keys):
        """(position in the sorted keys skeys, hit mask) per padded query key."""
        pos = np.searchsorted(skeys, keys)
        np.minimum(pos, len(skeys) - 1, out=pos)
        return pos, skeys[pos] == keys

    def find_rows(self, indices) -> np.ndarray:
        """Row position of each query index, -1 where absent.

        Queries outside the extent are reported absent. Raises ValueError
        unless the queries are (N, 3) or empty.
        """
        indices = _index_rows(indices, "queries")
        rows = np.full(len(indices), -1, dtype=np.int64)
        sel = np.flatnonzero(_inside_extent(indices, self.spec.extent))
        [(hits, found)] = self.pairs_at(indices[sel], np.zeros((1, 3), np.int64))
        rows[sel[hits]] = found
        return rows

    def pairs_at(self, base, offsets) -> list:
        """Per offset k, the (query rows, tensor rows) where base + offsets[k]
        is an occupied site.

        base rows must lie inside the extent and offsets in {-1, 0, 1}^3, so
        that each offset is one add to the padded keys of base. Query rows
        ascend. Sites are unique, so when the queries are unique too, neither
        side repeats within one offset. Raises ValueError unless base and
        offsets are each (N, 3) or empty.
        """
        base = _index_rows(base, "base")
        offsets = _index_rows(offsets, "offsets")
        extent = self.spec.extent
        if not _inside_extent(base, extent).all() or np.abs(offsets).max(initial=0) > 1:
            raise ValueError("pairs_at needs base rows inside the extent "
                             "and offsets in {-1, 0, 1}")
        empty = np.zeros(0, dtype=np.int64)
        if self.n == 0 or len(base) == 0:
            return [(empty, empty) for _ in offsets]
        keys = _padded_keys(base, extent)
        shifts = _padded_keys(offsets, extent) - _padded_keys(np.zeros((1, 3), np.int64), extent)
        skeys, order = self.sorted_keys()
        pairs, column = [None] * len(offsets), None
        for k in np.argsort(shifts, kind="stable"):   # (dx, dy) columns, each by dz
            if tuple(offsets[k, :2]) != column:         # one search per column
                column, at = tuple(offsets[k, :2]), shifts[k]
                pos, hit = self._locate(skeys, keys + at)
            for at in range(at + 1, shifts[k] + 1):     # one dz step is one key up
                pos += hit   # past a hit, the next key can only sit at pos + 1
                hit = skeys.take(pos, mode="clip") == keys + at
            rows = np.flatnonzero(hit)
            pairs[k] = (rows, order[pos[rows]])
        return pairs

    def _self_pairs(self, offsets) -> list:
        """Per offsets[k], the read-only (out rows, in rows) with indices[in]
        == indices[out] + offsets[k]; out rows ascend. offsets is symmetric
        about a zero centre (offsets[-1 - k] == -offsets[k]). pairs_at searches
        the column-complete half: (dx, dy) columns with (dy, dx) > (0, 0), and
        (0, 0, +1). The centre pairs each row with itself; pair -1 - k is pair
        k swapped, re-sorted if its out rows do not ascend."""
        half = np.flatnonzero([(dy, dx, dz) > (0, 0, 0) for dx, dy, dz in offsets.tolist()])
        pairs = [None] * len(offsets)
        pairs[len(offsets) // 2] = (np.arange(self.n),) * 2
        for k, (out_rows, in_rows) in zip(half, self.pairs_at(self.indices, offsets[half])):
            pairs[k] = (out_rows, in_rows)
            if np.any(in_rows[1:] < in_rows[:-1]):
                by_in = np.argsort(in_rows, kind="stable")
                in_rows, out_rows = in_rows[by_in], out_rows[by_in]
            pairs[-1 - k] = (in_rows, out_rows)
        for arr in (a for pair in pairs for a in pair):
            arr.setflags(write=False)
        return pairs

    def kernel_map(self) -> tuple:
        """Submanifold 3x3x3 kernel map: _self_pairs(OFFSETS_3D), which
        searches 5 columns of 13 offsets, built once per site set and cached."""
        if self._kernel_map is None:
            self._kernel_map = tuple(self._self_pairs(OFFSETS_3D))
        return self._kernel_map

    def cell_map(self, h2d) -> tuple:
        """Rows grouped by 2D pixel cell, and the 3x3 map over those cells.

        h2d is (N, 2) per row, INVALID_2D where the projection is invalid.
        Returns (valid mask, first, passes, pairs). Cells are numbered in
        lexicographic (u, v) order; first[j] is the first row of cell j, and
        passes[k - 1] holds (rows, cells) for the (k+1)-th rows of the cells
        with more than k rows. pairs holds, per OFFSETS_2D entry, the (output
        cell, input cell) pairs over occupied cells, from _self_pairs on the
        cells as the sites of a one-voxel-thick grid. The read-only result is
        cached with a private copy of h2d, and reused while h2d still equals
        that copy.
        """
        h2d = np.asarray(h2d, dtype=np.int64)
        cached = self._cell_map
        if cached is not None and np.array_equal(cached[0], h2d):
            return cached[1]
        valid = h2d[:, 0] != INVALID_2D
        rows = np.flatnonzero(valid)
        flat = np.zeros((len(rows), 3), np.int64)
        if len(rows):
            flat[:, :2] = h2d[rows]
            flat[:, :2] -= flat[:, :2].min(axis=0)
        spec = VoxelGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                             tuple(int(e) for e in flat.max(axis=0, initial=0) + 1))
        _, order, starts = _group(_padded_keys(flat, spec.extent), spec.extent)
        grid = SparseVoxelTensor(flat[order[starts]], np.zeros((len(starts), 0)), spec,
                                 _validate=False)
        order = rows[order]
        sizes = np.diff(starts, append=len(order))
        passes = []
        for k in range(1, sizes.max(initial=0)):
            cells = np.flatnonzero(sizes > k)
            passes.append((order[starts[cells] + k], cells))
        pairs = grid._self_pairs(np.pad(OFFSETS_2D, ((0, 0), (0, 1))))
        first = order[starts]
        h2d = h2d.copy()
        for a in (h2d, valid, first, *(arr for pair in passes for arr in pair)):
            a.setflags(write=False)
        self._cell_map = (h2d, (valid, first, passes, pairs))
        return self._cell_map[1]

    def with_features(self, features) -> "SparseVoxelTensor":
        """Same sites and flags, new feature matrix. Shares index storage and maps."""
        features = np.ascontiguousarray(features, dtype=np.float64)
        _check_features(features, self.n)
        out = SparseVoxelTensor(self.indices, features, self.spec, self.origin_flags,
                                _validate=False)
        out._kernel_map, out._cell_map = self._kernel_map, self._cell_map
        return out

    def downsampled_sites(self) -> tuple:
        """(spec, sites, flags) one stride level down: the downsampled spec,
        the distinct floor(index / 2) rows in key order, and their origin
        flags (None without flags). A coarse flag is origin_flags_of the mean
        of its rows' flags, counting LiDAR as 0, mixed as 0.5 and virtual as
        1. Each row counts once, whatever mix of finer voxels it stands for."""
        spec, flags = self.spec.downsampled(), self.origin_flags
        share = np.zeros((self.n, 0)) if flags is None else (
            (flags == ORIGIN_VIRTUAL) + 0.5 * (flags == ORIGIN_MIXED))[:, None]
        sites, virtual_frac = site_means(_padded_keys(self.indices // 2, spec.extent),
                                         share, spec)
        return spec, sites, None if flags is None else origin_flags_of(virtual_frac[:, 0])

    def take_rows(self, rows) -> "SparseVoxelTensor":
        """Subset tensor from a row selection; features are carried bit-exactly."""
        rows = np.asarray(rows, dtype=np.int64)
        flags = None if self.origin_flags is None else self.origin_flags[rows]
        return SparseVoxelTensor(
            self.indices[rows], self.features[rows], self.spec, flags, _validate=False
        )

    def to_debug_dict(self) -> dict:
        """JSON-friendly dump; layout documented in docs/formats.md."""
        d = {
            "spec": {
                "origin": list(self.spec.origin),
                "voxel_size": list(self.spec.voxel_size),
                "extent": list(self.spec.extent),
                "stride_level": self.spec.stride_level,
            },
            "indices": self.indices.tolist(),
            "features": self.features.tolist(),
            "width": self.width,
        }
        if self.origin_flags is not None:
            d["origin_flags"] = self.origin_flags.tolist()
        return d


def _check_features(features, n):
    """Raise ValueError unless features is a finite 2-D (n, C) array."""
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D (N, C) array, got shape {features.shape}")
    if features.shape[0] != n:
        raise ValueError(
            f"feature row count {features.shape[0]} does not match {n} indices"
        )
    with np.errstate(over="ignore", invalid="ignore"):   # a finite sum needs no (N, C) mask
        if not (np.isfinite(features.sum()) or np.isfinite(features).all()):
            bad = np.flatnonzero(~np.isfinite(features).all(axis=1))[0]
            raise ValueError(f"non-finite feature values at row {bad}")


def _validate_tensor(indices, features, spec, origin_flags):
    n = len(indices)
    _check_features(features, n)
    if origin_flags is not None:
        if origin_flags.shape != (n,):
            raise ValueError(f"origin_flags shape {origin_flags.shape} does not match "
                             f"the voxel count: expected ({n},)")
        bad = np.flatnonzero(~np.isin(origin_flags, (ORIGIN_LIDAR, ORIGIN_VIRTUAL, ORIGIN_MIXED)))
        if len(bad):
            raise ValueError(f"origin flag {origin_flags[bad[0]]} at row {bad[0]} is not "
                             "0 (LiDAR), 1 (virtual) or 2 (mixed)")
    outside = ~_inside_extent(indices, spec.extent)
    if outside.any():
        bad = indices[np.flatnonzero(outside)[0]]
        raise ValueError(
            f"index {tuple(int(v) for v in bad)} outside grid extent "
            f"{tuple(int(v) for v in spec.extent)}"
        )
