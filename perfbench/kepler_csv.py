"""kepler_csv: ``ga-calc kepler ... --csv PATH`` runs, in process.

Each op integrates one seeded bound orbit and writes its CSV through
``gacalc.cli.main``. Half the orbits of a round record every step (the CLI
default), half record every 1000th step. Orbits range from near-circular to
highly eccentric; one in eight per half has a low angular momentum (|L|
0.02-0.05 against about 1 for a circular orbit).

Near-radial orbits (|L| about 1e-6) hit a known defect: the program
rejects them with an energy-eccentricity identity error. They are the
workload's known-defect ops, run once per timed run and reported apart.

Checks: the CSV has the expected number of rows, its first row matches the
initial conditions, and energy and |L| drift from t0 stay within bounds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import shutil

import common

# (speed class, steps) per orbit of a half-round. Speed classes set the
# tangential speed at r = 1 with k = m = 1: circular ~1, eccentric < 1 or > 1.
SPEEDS = {"circular": (0.95, 1.05), "moderate": (0.75, 0.9), "fast": (1.1, 1.25),
          "eccentric": (0.5, 0.6), "high": (0.3, 0.4)}
DENSE = (("circular", 500), ("moderate", 700), ("fast", 900), ("eccentric", 1100),
         ("high", 1300), ("circular", 1500), ("moderate", 1700), ("low_l", 1000))
SPARSE = (("circular", 12000), ("moderate", 16000), ("fast", 20000),
          ("eccentric", 24000), ("high", 28000), ("circular", 32000),
          ("moderate", 36000), ("low_l", 10000))
RADIAL = (("radial", 1000, False), ("radial", 10000, True))     # known defect
TINY_DENSE = (("eccentric", 200), ("low_l", 200))
TINY_SPARSE = (("high", 4000),)
TINY_RADIAL = (("radial", 200, False),)
DENSE_DT, SPARSE_DT, SPARSE_EVERY = 1e-3, 1e-4, 1000
RADIAL_SPEED, RADIAL_TANGENTIAL, LOW_L_TANGENTIAL = 0.5, 1e-6, (0.02, 0.05)
VARIANTS = 4
E_DRIFT, L_DRIFT = 1e-4, 1e-5     # relative to |KE0| + |PE0| and |r0||v0|


def _rotation(rng):
    """A random 3x3 rotation matrix (rows), from a random unit quaternion."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    s = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / s, x / s, y / s, z / s
    return ((1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
            (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
            (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)))


def _rotate(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def _orbit(rng, kind, steps, sparse):
    """Argument values of one orbit: r0, v0, dt, steps, record_every."""
    m = _rotation(rng)
    if kind == "radial":
        v = (RADIAL_SPEED, RADIAL_TANGENTIAL, 0.0)
    elif kind == "low_l":
        v = (RADIAL_SPEED, rng.uniform(*LOW_L_TANGENTIAL), 0.0)
    else:
        v = (0.0, rng.uniform(*SPEEDS[kind]), 0.0)
    return {"r0": _rotate(m, (1.0, 0.0, 0.0)), "v0": _rotate(m, v),
            "dt": SPARSE_DT if sparse else DENSE_DT, "steps": steps,
            "every": SPARSE_EVERY if sparse else 1}


def _vec(v):
    return ",".join(repr(c) for c in v)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class KeplerCsv(common.Workload):
    name = "kepler_csv"
    tail_percentile = 90
    trace_rounds = 1

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        import gacalc.cli

        self.cli = gacalc.cli
        self.oracle = common.load_oracle()
        rng = random.Random(seed)
        self.rng = rng
        dense, sparse = (TINY_DENSE, TINY_SPARSE) if tiny else (DENSE, SPARSE)
        slots = [(k, s, False) for k, s in dense] + [(k, s, True) for k, s in sparse]
        self.orbits = [[_orbit(rng, *slot) for _ in range(1 if tiny else VARIANTS)]
                       for slot in slots]
        self.radial = [_orbit(rng, *slot) for slot in (TINY_RADIAL if tiny else RADIAL)]
        self.dir = common.TMP / f"kepler_csv-{seed}-{id(self):x}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.csv_path = self.dir / "orbit.csv"

    def ops(self, round_index):
        out = [(i, round_index % len(v)) for i, v in enumerate(self.orbits)]
        self.rng.shuffle(out)
        return out

    def defect_ops(self):
        return [("radial", i) for i in range(len(self.radial))]

    def _orbit_of(self, op):
        return self.radial[op[1]] if op[0] == "radial" else self.orbits[op[0]][op[1]]

    def prepare(self, op):
        o = self._orbit_of(op)
        self.csv_path.unlink(missing_ok=True)
        # "--opt=value" keeps argparse from reading a leading minus as an option
        return ["kepler", f"--r0={_vec(o['r0'])}", f"--v0={_vec(o['v0'])}",
                "--dt", repr(o["dt"]), "--steps", str(o["steps"]),
                "--record-every", str(o["every"]), "--csv", str(self.csv_path)]

    def run(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        if code != 0:
            raise common.OpFailed(f"exit {code}: {err.getvalue().strip()}")
        return code

    def check(self, op, argv, _code):
        o = self._orbit_of(op)
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        steps, every = o["steps"], o["every"]
        want_rows = 1 + steps // every + (1 if steps % every else 0)
        if len(rows) != want_rows + 1:
            return f"{len(rows) - 1} CSV rows, expected {want_rows}"
        first = [float(x) for x in rows[1]]
        last = [float(x) for x in rows[-1]]
        r0, v0 = o["r0"], o["v0"]
        kinetic, potential = 0.5 * _dot(v0, v0), 1.0 / math.sqrt(_dot(r0, r0))
        energy0 = kinetic - potential
        cross = self.oracle.cross3(r0, v0)          # (L_yz, L_zx, L_xy) of r ^ v
        e_scale = kinetic + potential
        l_scale = math.sqrt(_dot(r0, r0) * _dot(v0, v0))
        if abs(first[13] - energy0) > 1e-12 * e_scale:
            return f"row 1 energy {first[13]!r}, expected {energy0!r}"
        if max(abs(a - b) for a, b in zip(first[7:10], cross)) > 1e-12 * l_scale:
            return "row 1 angular momentum differs from r0 ^ v0"
        if abs(last[13] - first[13]) > E_DRIFT * e_scale:
            return f"energy drifted by {last[13] - first[13]!r}"
        l_first, l_last = math.hypot(*first[7:10]), math.hypot(*last[7:10])
        if abs(l_last - l_first) > L_DRIFT * l_scale:
            return f"|L| drifted by {l_last - l_first!r}"
        return None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
