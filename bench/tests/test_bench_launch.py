import os
import sys

import _paths
import run


def test_child_max_rss_is_its_own_not_the_benchmarks(tmp_path):
    # 200 MiB touched in this process: a child forked from here would report
    # at least that much, one started by the launcher reports its own.
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    with run.Launcher() as launcher:
        record = launcher.run([sys.executable, "-c", "print('ok')"], str(tmp_path),
                              dict(os.environ))
    assert record.code == 0 and record.stdout == "ok\n"
    assert record.rss_mb < 100
    assert record.wall_s > 0
    del ballast
