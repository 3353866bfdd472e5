"""Seeded check of both root scans against their functions and oracles.

Solves seeded batches of (A1, B1, A2, B2) rows with find_roots_batch, and
seeded alpha cubics with polynomial_alpha_roots_batch, which share one
rule for double roots and for merging close candidates. A fifth of the
rows of each kind:
- normal draws, scaled by 10**U(-6, 2);
- the same with each coefficient zeroed with probability 1/3, and B2 set
  to B1 in half of them (Psi = pi is then a root);
- cubics P(tan(Psi/2)) with three planted roots, a third of them on the
  seams of the scan's two charts, tan(Psi/2) = +-1/2 or +-2;
- planted cubics with a close pair, 3e-7 to 5e-2 apart in Psi (beyond
  the 1e-7 either side of the maximum of |G| between them within which
  the scan takes two crossings for a double root that rounding split),
  and the third root at least 0.05 from the pair;
- psi-scan rows: alpha cubics, scaled by 10**U(-6, 2), with a close pair
  3e-7 to 5e-2 apart, a double root, or a root within 1e-10 to 1e-2 of
  +-1 on either side (a third of those a line with that root alone).
Every find_roots_batch row and every psi-scan cubic is also solved in a
joint pass of both scans, root_scans, one call per psi-scan cubic with a
share of the rows, and must give the two public scans' results.
Each reported root of G, crossing or tangential, must zero g_factored to
1e-9 times the row's largest coefficient. Where the companion-matrix
roots of the degree-6 polynomial in exp(i Psi/2) are well posed (no
close pair, no root near the unit circle or the ends), the reported
crossings must be those roots to 1e-8. On planted rows, the planted
roots that are not within 2e-8 of an end must be the reported roots, one
to one: simple roots crossings, to 1e-8 or to how far rounding the row
can move them where that is more (a close pair's roots), and a double
root (two seam draws alike) a tangential root to 1e-8. A triple root
(three alike), which rounding the row moves by about 1e-5 and may split,
must be where every reported root is, to 1e-5. Tangential roots where
the companion finds none are counted and printed. Each alpha root must
zero its cubic to 1e-9 times the row's largest coefficient; the planted
roots inside (-1, 1) must be the reported roots, one to one, to 1e-8 or
how far rounding moves them, and a double root, reported once, to 1e-7.
So must the real roots from np.polynomial.polynomial.polyroots that are
not within 1e-8 of an end, to the same tolerances, or to 1e-6 on a row
with a double root, which polyroots moves by about 1e-7. Only an all-zero
row may be reported as identically zero. Every find_roots_batch row, and
every fourth psi-scan row, is solved again at an exact rescaling by 2^k,
k drawn from [-1000, 1000] where the scan's inputs stay normal floats and
finite, and must give the same result. Exits 1 at the first failed check
and prints it. The oracle for G is tests/companion.py. Usage:
    python scripts/root_scan_sweep.py [--rows 20000] [--seed 1]
"""
import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from hopfphase import (PsiRoot, RootScanResult, find_roots_batch, g_factored,
                       polynomial_alpha_roots_batch, root_scans)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from companion import companion_psi_roots  # noqa: E402

TAU = 2.0 * math.pi
SEAMS = np.array([0.5, 2.0, -0.5, -2.0])


def planted_rows(u):
    """(A1, B1, A2, B2) rows whose P(u) = (A1 + A2) + (B1 + 3 B2) u
    + (A1 - 3 A2) u^2 + (B1 - B2) u^3 is the monic cubic with the roots
    u[i] of each row."""
    p0 = -u[:, 0] * u[:, 1] * u[:, 2]
    p1 = u[:, 0] * u[:, 1] + u[:, 0] * u[:, 2] + u[:, 1] * u[:, 2]
    p2 = -u.sum(axis=1)
    a2, b2 = (p0 - p2) / 4, (p1 - 1.0) / 4
    return np.stack([p0 - a2, 1.0 + b2, a2, b2], axis=1)


def draw(rng, n):
    """(kind, rows, planted Psi roots or None) batches of find_roots_batch
    rows, then the psi-scan batch, n rows in all."""
    m = n // 5
    scaled = rng.normal(size=(m, 4)) * 10.0 ** rng.uniform(-6, 2, size=(m, 1))
    yield "normal", scaled, None
    sparse = rng.normal(size=(m, 4)) * (rng.uniform(size=(m, 4)) > 1 / 3)
    sparse[: m // 2, 3] = sparse[: m // 2, 1]
    yield "sparse", sparse * 10.0 ** rng.uniform(-6, 2, size=(m, 1)), None
    psi = rng.uniform(0.0, TAU, size=(m, 3))
    seam = rng.uniform(size=(m, 3)) < 1 / 9
    psi[seam] = (2.0 * np.arctan(rng.choice(SEAMS, seam.sum()))) % TAU
    yield "planted", planted_rows(np.tan(psi / 2)), psi
    psi = rng.uniform(0.0, TAU, size=(m, 3))
    gap = 10.0 ** rng.uniform(math.log10(3e-7), math.log10(5e-2), m)
    psi[:, 1] = (psi[:, 0] + gap) % TAU
    psi[:, 2] = (psi[:, 0] + rng.uniform(0.1, TAU - 0.05, m)) % TAU
    yield "close pair", planted_rows(np.tan(psi / 2)), psi
    yield "alpha cubic", *alpha_cubics(rng, n - 4 * m)


def alpha_cubics(rng, m):
    """m rows (Psi, ascending alpha coefficients scaled by 10**U(-6, 2)) of
    polynomial_alpha_roots_batch, and each row's planted roots: r0 in
    (-0.9, 0.9); a close pair r0 + s*gap, a double root r0, or a root
    s*(1 +- d) near an end, where s is the sign of r0; and r0 - s*U(0.1, 1.5).
    A third of the rows with a root near an end keep that root alone."""
    r0 = rng.uniform(-0.9, 0.9, m)
    s = np.where(r0 < 0, -1.0, 1.0)
    kind = rng.integers(0, 3, m)
    gap = 10.0 ** rng.uniform(math.log10(3e-7), math.log10(5e-2), m)
    end = s * (1.0 + rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-10, -2, m))
    r1 = np.select([kind == 0, kind == 1], [r0 + s * gap, r0], end)
    planted = np.stack([r0, r1, r0 - s * rng.uniform(0.1, 1.5, m)], axis=1)
    line = (kind == 2) & (rng.uniform(size=m) < 1 / 3)
    scale = 10.0 ** rng.uniform(-6, 2, m)
    psi = rng.uniform(0.1, math.pi - 0.1, m)
    poly = np.polynomial.polynomial
    rows = [(x, scale[i] * poly.polyfromroots(planted[i, 1:2] if line[i] else planted[i]))
            for i, x in enumerate(psi.tolist())]
    return rows, [planted[i, 1:2] if line[i] else planted[i] for i in range(m)]


def matched(want, got, tol=1e-8):
    """Whether every value of want lies within tol (one, or one for each
    value) of one of got."""
    return all(np.min(np.abs(got - x), initial=np.inf) < t
               for x, t in zip(want, np.broadcast_to(tol, len(want))))


def tolerance(p, x, rate=1.0):
    """Tolerance of each simple root x of the polynomial p, in a variable
    that changes by rate per unit of x: 1e-8, or where more, how far an
    error of 2e-15 of p's largest term moves the root (3e-7 apart, a
    pair's roots move by about 1e-8 when the row rounds)."""
    poly = np.polynomial.polynomial
    slope = np.abs(poly.polyval(x, poly.polyder(p))) / rate
    return np.maximum(1e-8, 2e-15 * poly.polyval(np.abs(x), np.abs(p)) / slope)


def root_tolerance(planted, psi):
    """Tolerance of each simple root psi of the cubic with the planted
    roots in u = tan(Psi/2); Psi changes by 2 / (1 + u^2) per unit of u."""
    u = np.tan(psi / 2)
    return tolerance(np.polynomial.polynomial.polyfromroots(np.tan(planted / 2)),
                     u, 2.0 / (1.0 + u * u))


def scale_powers(rng, rows, factor=1.0):
    """A power k for each row, drawn from [-1000, 1000] where every nonzero
    entry of rows * factor * 2^k is a normal float and rows * 2^k stays
    below 2^1018. At such k a scan's input rows, and the products the psi
    scan forms with its harmonics (factor), scale exactly, so the scan's
    results must not change."""
    size = np.abs(rows)
    tiny = np.frexp(np.min(np.where(size > 0, size * factor, np.inf), axis=1))[1]
    huge = np.frexp(np.max(size, axis=1))[1]
    return rng.integers(np.maximum(-1000, -1020 - tiny),
                        np.minimum(1000, 1018 - huge) + 1)


def check(kind, rows, planted, counts, powers):
    """None, or a line naming the first row that fails a check."""
    scale = np.max(np.abs(rows), axis=1)
    scans = find_roots_batch(rows)
    k = scale_powers(powers, rows)
    for i, again in enumerate(find_roots_batch(np.ldexp(rows, k[:, None]))):
        if again != scans[i]:
            return f"{kind} row {rows[i].tolist()}: {scans[i]}, times 2^{k[i]} {again}"
    counts["rescaled"] += len(scans)
    for i, scan in enumerate(scans):
        row = rows[i].tolist()
        where = f"{kind} row {row}: {scan}"
        if scan.identically_zero:
            if scale[i] != 0.0:
                return f"{where} is not identically zero"
            continue
        cross = np.array([r.psi for r in scan.roots if not r.tangential])
        tangent = [r.psi for r in scan.roots if r.tangential]
        counts["roots"] += len(scan.roots)
        counts["tangential"] += len(tangent)
        for psi in cross:
            if not abs(g_factored(psi, row)) <= 1e-9 * scale[i]:
                return f"{where}: |G({psi!r})| above 1e-9 * scale"
        for psi in tangent:
            if not abs(g_factored(psi, row)) <= 1e-9 * scale[i]:
                return f"{where}: |G({psi!r})| of a tangential root above 1e-9 * scale"
        want = companion_psi_roots(row)
        if want is not None:
            counts["companion"] += 1
            if not (matched(want, cross) and matched(cross, want)):
                return f"{where}: the companion roots are {want.tolist()}"
            counts["tangential beside the companion"] += len(tangent)
        if planted is not None:
            psi = planted[i][np.minimum(planted[i], TAU - planted[i]) >= 2e-8]
            # two seam draws alike plant a double root, which is tangential
            psi, times = np.unique(psi, return_counts=True)
            simple = psi[times == 1]
            if times.max(initial=0) == 3:
                if not (scan.roots and matched([r.psi for r in scan.roots], psi, 1e-5)):
                    return f"{where}: the planted triple root is {psi.tolist()}"
            elif not (len(cross) == simple.size
                    and len(tangent) == psi.size - simple.size
                    and matched(simple, cross, root_tolerance(planted[i], simple))
                    and matched(psi[times > 1], np.array(tangent))):
                return f"{where}: the planted roots are {psi.tolist()} {times.tolist()}"
    return None


def check_alpha(rows, planted, counts, powers, scans):
    """None, or a line naming the first psi-scan row that fails a check;
    each row's result is appended to scans."""
    poly = np.polynomial.polynomial
    for i, ((psi, p), want) in enumerate(zip(rows, planted)):
        scan = polynomial_alpha_roots_batch([psi], p, (), (), ())[0]
        scans.append(scan)
        where = f"alpha cubic {p.tolist()} at Psi = {psi!r}: {scan}"
        if scan.identically_zero:
            return f"{where} is not identically zero"
        if i % 4 == 0:
            k = int(scale_powers(powers, p[None, :], math.cos(psi / 2))[0])
            again = polynomial_alpha_roots_batch([psi], np.ldexp(p, k), (), (), ())[0]
            if again != scan:
                return f"{where}: times 2^{k} it is {again}"
            counts["rescaled"] += 1
        got = np.array(scan.roots)
        counts["alpha roots"] += got.size
        row = p * math.cos(psi / 2)
        for x in got:
            if not abs(poly.polyval(x, row)) <= 1e-9 * np.max(np.abs(row)):
                return f"{where}: |P({x!r})| above 1e-9 * scale"
        # a double root is reported once, to 1e-7
        want, times = np.unique(want[np.abs(want) < 1.0], return_counts=True)
        tol = np.full(want.size, 1e-7)
        tol[times == 1] = tolerance(p, want[times == 1])
        if not (got.size == want.size and matched(want, got, tol)):
            return f"{where}: the planted roots are {want.tolist()} {times.tolist()}"
        # polyroots moves a double root by up to about 1e-7, off the axis too
        double = times.max(initial=1) > 1
        oracle = poly.polyroots(p)
        real = oracle.real[(np.abs(oracle.imag) <= (1e-6 if double else 1e-9))
                           & (np.abs(oracle.real) < 1.0 - 1e-8)]
        inner = got[np.abs(got) < 1.0 - 1e-8]
        if not (matched(real, got, 1e-6 if double else tolerance(p, real))
                and matched(inner, real, 1e-6 if double else tolerance(p, inner))):
            return f"{where}: the polyroots roots are {oracle.tolist()}"
    return None


def grouped(scan, root):
    """A root_scans scan as a RootScanResult per list."""
    lists, values, tangential, vanishing = scan
    return [RootScanResult(tuple(map(root, values[lists == i].tolist(),
                                     tangential[lists == i].tolist())), flat)
            for i, flat in enumerate(vanishing.tolist())]


def check_joint(rows, cubics, psi_scans, counts):
    """None, or a line naming the first joint pass of both scans that
    differs from the public scans (find_roots_batch, and psi_scans from
    polynomial_alpha_roots_batch): the rows are spread over one root_scans
    call per psi-scan cubic, each with that cubic."""
    want = find_roots_batch(rows)
    shares = np.array_split(np.arange(len(rows)), len(cubics))
    for share, (psi, p), psi_scan in zip(shares, cubics, psi_scans):
        got = root_scans(rows[share], [psi], (p, (), (), ()))
        got = grouped(got[0], PsiRoot), grouped(got[1], lambda alpha, _: alpha)
        if got != ([want[i] for i in share], [psi_scan]):
            return (f"joint pass of rows {share.tolist()} and alpha cubic "
                    f"{p.tolist()} at Psi = {psi!r}: {got}")
    counts["joint"] += len(rows) + len(cubics)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.Generator(np.random.Philox(args.seed))
    # the powers of two come from their own stream, so the rows are as before
    powers = np.random.Generator(np.random.Philox(args.seed).jumped())
    counts = dict.fromkeys(["roots", "tangential", "companion",
                            "tangential beside the companion", "alpha roots",
                            "rescaled", "joint"], 0)
    start = time.perf_counter()
    batches, psi_scans = [], []
    for kind, rows, planted in draw(rng, args.rows):
        failed = (check_alpha(rows, planted, counts, powers, psi_scans)
                  if kind == "alpha cubic" else check(kind, rows, planted, counts, powers))
        batches.append(rows)
        if failed is not None:
            print(failed)
            return 1
    failed = check_joint(np.concatenate(batches[:-1]), batches[-1], psi_scans, counts)
    if failed is not None:
        print(failed)
        return 1
    print(f"{args.rows} rows, {counts['roots']} roots ({counts['tangential']} "
          f"tangential) zero G; {counts['companion']} rows match the companion "
          f"roots, {counts['tangential beside the companion']} tangential roots "
          f"where it has none; {counts['alpha roots']} alpha roots match the "
          f"planted and polyroots roots; {counts['rescaled']} rows rescaled by "
          f"2^k give the same results; {counts['joint']} rows give them in joint "
          f"passes of both scans; {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
