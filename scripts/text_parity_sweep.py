"""Byte-for-byte check of the trajectory text against per-value "%.17g".

Renders seeded batches of doubles through trajectory_text, as the phi_k
columns of phase trajectories, and compares every line with the same values
formatted one at a time by Python's "%.17g". The values are:
- raw 64-bit patterns, seven in eight with exponents in 2**-14 .. 2**54
  (the kernel's fast set and just beyond it) and the rest anywhere, so
  subnormals, zeros, infinities and NaNs occur too;
- exact ties in the 17th digit, m / 4 for odd m in [4e15, 2**53), of
  either sign;
- every power of ten that is a double, with its neighbours 1 to 3 ulp away
  on either side, of either sign.
Exits 1 at the first mismatch and prints it. Usage:
    python scripts/text_parity_sweep.py [--values 10000000] [--seed 1]
"""
import argparse
import sys
import time

import numpy as np

from hopfphase import Trajectory, trajectory_text

WIDTH = 250  # values a row, so a batch spans many kernel passes and rows
BATCH = 100_000


def raw_patterns(rng, size):
    bits = rng.integers(0, 2 ** 64, size, dtype=np.uint64)
    near = slice(size // 8, size)
    bits[near] &= np.uint64(2 ** 63 + 2 ** 52 - 1)
    bits[near] |= rng.integers(1023 - 14, 1023 + 55, bits[near].size,
                               dtype=np.uint64) << np.uint64(52)
    return bits.view(np.float64)


def ties(rng, size):
    m = rng.integers(4 * 10 ** 15, 2 ** 53, size, dtype=np.int64) | 1
    return m / 4.0 * rng.choice([-1.0, 1.0], size)


def powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = [tens]
    for direction in (0.0, np.inf):
        step = tens
        for _ in range(3):
            step = np.nextafter(step, direction)
            values.append(step)
    values = np.concatenate(values)
    return np.concatenate([values, -values])


def batches(rng, size):
    """(kind, values) batches: the powers of ten, then size values in
    batches of BATCH."""
    yield "powers of ten", powers_of_ten()
    n_ties = size // 10
    for kind, count, draw in (("ties", n_ties, ties),
                              ("raw patterns", size - n_ties, raw_patterns)):
        for offset in range(0, count, BATCH):
            yield kind, draw(rng, min(BATCH, count - offset))


def mismatch(values):
    """The first value whose text and per-value "%.17g" differ, or None."""
    rows = -(-values.size // WIDTH)
    states = np.resize(values, (rows, WIDTH))  # the last row wraps around
    traj = Trajectory(np.arange(rows) * 0.25, states, "phase")
    lines = trajectory_text(traj).splitlines()[2:]
    template = ", ".join(["%.17g"] * (1 + WIDTH))
    for line, t, row in zip(lines, traj.times.tolist(), states.tolist()):
        expected = template % (t, *row)
        if line != expected:
            return next((a, b) for a, b in zip(line.split(", "), expected.split(", "))
                        if a != b)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--values", type=int, default=10 ** 7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.Generator(np.random.Philox(args.seed))
    done = 0
    start = time.perf_counter()
    for kind, values in batches(rng, args.values):
        found = mismatch(values)
        if found is not None:
            print(f"{kind}: the text has {found[0]!r} where %.17g "
                  f"writes {found[1]!r}")
            return 1
        done += values.size
    print(f"{done} values byte-identical to per-value %.17g "
          f"in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
