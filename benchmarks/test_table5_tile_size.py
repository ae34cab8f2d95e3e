"""Table V: MM compute time vs loop-tiling size.

Paper: for column-major access, larger tiles improve locality and cut
compute time steadily (16 -> 128); row-major is inherently sequential and
insensitive to tile size.

Run at L-SSD(8:8:8) (half the paper's node count) to keep the bench
wall-clock reasonable; the tile-size trend is per-node behaviour.
"""

from repro.experiments import SMALL, table5


def test_table5_tile_size(report_runner):
    report = report_runner(
        table5, SMALL, config=(8, 8, 8, False)
    )
    assert report.verified

    tiles = [row[0] for row in report.rows]
    row_times = [row[1] for row in report.rows]
    col_times = [row[2] for row in report.rows]

    # Column-major improves monotonically with tile size...
    assert all(a > b for a, b in zip(col_times, col_times[1:]))
    # ... by a substantial factor over the sweep.
    assert col_times[0] > 2 * col_times[-1]
    # Row-major is insensitive (within 15%).
    assert max(row_times) < 1.15 * min(row_times)
