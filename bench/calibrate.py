"""A fixed job that measures how fast the machine is right now.

    python3 bench/calibrate.py

It does what a `catalysis` command does, but with nothing from src/: it
starts the interpreter, imports numpy and scipy.linalg, runs vectorised grid
arithmetic, a Python loop of small calls, a few small matrix exponentials,
and formats numbers as CSV text.  Its work never changes, so a change in its
wall time is a change in the machine, not in the program.  run.py runs it
between the timed commands and scales every timing by the reference time
over its median (see README.md).
"""

import numpy as np
import scipy.linalg


def main() -> float:
    x = np.linspace(-5.0, 5.0, 201)
    grid = np.add.outer(x * x, x * x)
    acc = np.zeros_like(grid)
    for n in range(200):
        acc += np.exp(-grid / (n + 1.0)) * (-1.0) ** n
    text = "\n".join(",".join(f"{v:.9g}" for v in row) for row in acc[::2])
    total = 0.0
    for i in range(60000):
        total += abs(complex(i, 1.0)) * 1e-9
    m = np.eye(24) * 1e-2 + 1e-3
    for _ in range(4):
        m = scipy.linalg.expm(m * 0.5)
    return total + len(text) + float(m[0, 0])


if __name__ == "__main__":
    main()
