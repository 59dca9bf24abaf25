"""File formats: coordinate sparse matrices, P2 PGM images, CSV grids."""

import numpy as np
import scipy.sparse as sp

PGM_MAXVAL = 255       # grey levels save_pgm writes


def load_coo_matrix(path):
    """Load a sparse matrix from a plain-text coordinate file.

    First line is "m n nnz"; each following line is "i j v" with 1-based
    indices.  Duplicate coordinates are rejected.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise ValueError(f"{path}: missing header 'm n nnz'")
    m, n, nnz = int(tokens[0]), int(tokens[1]), int(tokens[2])
    body = tokens[3:]
    if len(body) != 3 * nnz:
        raise ValueError(f"{path}: expected {nnz} entries, found {len(body) // 3}")
    rows = np.array(body[0::3], dtype=int) - 1
    cols = np.array(body[1::3], dtype=int) - 1
    vals = np.array(body[2::3], dtype=float)
    if np.any(rows < 0) or np.any(rows >= m) or np.any(cols < 0) or np.any(cols >= n):
        raise ValueError(f"{path}: index out of range")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{path}: nonfinite value")
    seen = set(zip(rows.tolist(), cols.tolist()))
    if len(seen) != nnz:
        raise ValueError(f"{path}: duplicate coordinates")
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def save_coo_matrix(path, mat):
    """Save in ``load_coo_matrix``'s format; each value's repr reads back to its bits."""
    coo = sp.coo_matrix(mat)
    with open(path, "w") as fh:
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            fh.write(f"{r + 1} {c + 1} {v!r}\n")


def load_pgm(path):
    """Load a P2 (ASCII) PGM image, normalized to [0, 1]."""
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not a P2 PGM file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = np.array(tokens[4:], dtype=float)
    if data.size != w * h:
        raise ValueError(f"{path}: expected {w * h} pixels, got {data.size}")
    return data.reshape(h, w) / maxval


def save_pgm(path, grid):
    """Save a [0, 1] grid as an ASCII PGM, clipping out-of-range values."""
    grid = np.asarray(grid, dtype=float)
    pix = np.rint(np.clip(grid, 0.0, 1.0) * PGM_MAXVAL).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{grid.shape[1]} {grid.shape[0]}\n{PGM_MAXVAL}\n")
        for row in pix:
            fh.write(" ".join(str(v) for v in row) + "\n")


def load_grid_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_grid_csv(path, grid):
    np.savetxt(path, np.asarray(grid, dtype=float), delimiter=",", fmt="%.17g")
