"""A stored discrete watermelon and its CSV form.

A path is p non-crossing +-1-step walks on the time grid 0..2n, pinned at
0, 2, ..., 2p-2 at both ends.  Checking those lattice constraints, reading
and writing the CSV and drawing the path need only integers, so this
module uses only the standard library: `render` and `verify --from-file`
load neither numpy nor scipy.
"""

import csv
from dataclasses import dataclass
from operator import lt, sub


@dataclass(frozen=True)
class WatermelonPath:
    """One discrete watermelon: positions[k][i] is branch i at time k, k = 0..2n."""

    p: int
    n: int
    positions: tuple
    wall: bool

    def __post_init__(self):
        p, n = self.p, self.n
        if p < 1 or n < 1:
            raise ValueError("need p >= 1 and n >= 1")
        rows = self.positions
        if len(rows) != 2 * n + 1 or set(map(len, rows)) != {p}:
            width = next((w for w in map(len, rows) if w != p), p)
            raise ValueError(f"positions shape {(len(rows), width)} != {(2 * n + 1, p)}")
        # by columns, so that the checks loop inside map, set and min, not in Python
        cols = [tuple(map(int, col)) for col in zip(*rows)]
        pos = tuple(zip(*cols))
        object.__setattr__(self, "positions", pos)
        start = tuple(range(0, 2 * p, 2))
        if pos[0] != start or pos[-1] != start:
            raise ValueError("endpoints must be pinned at (0, 2, ..., 2p-2)")
        if not all(all(map(lt, lower, upper)) for lower, upper in zip(cols, cols[1:])):
            raise ValueError("branches must stay strictly ordered")
        if not all(set(map(sub, col[1:], col)) <= {-1, 1} for col in cols):
            raise ValueError("every step must move each branch by exactly one")
        # the branches are ordered, so the lowest is the first
        if self.wall and min(cols[0]) < 0:
            raise ValueError("wall paths must stay nonnegative")


def write_path_csv(path, fileobj):
    """Write one watermelon as CSV rows k,branch_1,...,branch_p."""
    writer = csv.writer(fileobj)
    writer.writerow(["k"] + [f"branch_{i + 1}" for i in range(path.p)])
    writer.writerows((k, *row) for k, row in enumerate(path.positions))


def read_path_csv(fileobj, wall):
    """Inverse of write_path_csv; wall is metadata the CSV does not carry.

    Raises ValueError on an empty file, on a header other than
    k,branch_1,...,branch_p, on a k column other than 0, 1, ..., 2n, and
    on positions that are not a watermelon.
    """
    reader = csv.reader(fileobj)
    header = next(reader, None)
    if header is None:
        raise ValueError("empty path file")
    p = len(header) - 1
    if header != ["k"] + [f"branch_{i + 1}" for i in range(p)]:
        raise ValueError(f"header must be k,branch_1,...,branch_p, got {','.join(header)!r}")
    rows = [[int(v) for v in row] for row in reader]
    if [row[:1] for row in rows] != [[k] for k in range(len(rows))]:
        raise ValueError("the k column must count 0, 1, ..., 2n")
    n = (len(rows) - 1) // 2
    return WatermelonPath(p=p, n=n, positions=[row[1:] for row in rows], wall=wall)
