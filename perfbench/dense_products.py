"""dense_products: products of dense operands in fresh algebras, n = 6..12.

Each op builds its operands in a new Algebra (untimed), so the timed
product includes filling the algebra's blade-product cache, as it does in
every process. Operand shapes are fixed; the seed draws the coefficients
and the order of ops in each round. Sampled output coefficients are checked
against the word-reduction oracle of the test suite.
"""

from __future__ import annotations

import random

import common

# (p, q, density of A, density of B); at n = 12 no product takes more than
# about half a second.
SHAPES = (
    (6, 0, "full", "full"),
    (3, 3, "rotor", "vector"),
    (4, 4, "full", "full"),
    (8, 0, "rotor", "rotor"),
    (10, 0, "full", "bivector"),
    (5, 5, "rotor", "vector"),
    (6, 4, "bivector", "bivector"),
    (12, 0, "vector", "full"),
    (6, 6, "bivector", "rotor"),
    (12, 0, "rotor", "vector"),
    (7, 5, "bivector", "bivector"),
)
TINY_SHAPES = SHAPES[:2]
PRODUCTS = ("gp", "wedge", "lcontract", "rcontract", "scalar_product")
ORACLE_NAME = {"gp": "gp", "wedge": "outer", "lcontract": "lcontract",
               "rcontract": "rcontract"}
VARIANTS = 3
SAMPLED_BLADES = 3


def blades(n, density):
    """Index tuples of every blade the density fills."""
    out = []
    for bits in range(1 << n):
        grade = bits.bit_count()
        if (density == "full" or (density == "vector" and grade == 1)
                or (density == "bivector" and grade == 2)
                or (density == "rotor" and grade % 2 == 0)):
            out.append(tuple(i + 1 for i in range(n) if bits >> i & 1))
    return out


def _coeffs(rng, keys):
    return {k: rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)) for k in keys}


def _apply(name, a, b):
    if name == "gp":
        return a * b
    if name == "wedge":
        return a ^ b
    if name == "lcontract":
        return a.left_contract(b)
    if name == "rcontract":
        return a.right_contract(b)
    return a.scalar_product(b)


class DenseProducts(common.Workload):
    name = "dense_products"
    tail_percentile = 95
    trace_rounds = 2

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        import gacalc

        self.algebra_cls = gacalc.Algebra
        self.oracle = common.load_oracle()
        self.rng = random.Random(seed)
        self.shapes = TINY_SHAPES if tiny else SHAPES
        self.operands = []
        for p, q, da, db in self.shapes:
            n = p + q
            keys_a, keys_b = blades(n, da), blades(n, db)
            self.operands.append([(_coeffs(self.rng, keys_a), _coeffs(self.rng, keys_b))
                                  for _ in range(1 if tiny else VARIANTS)])

    def ops(self, round_index):
        out = [(s, name, round_index % len(self.operands[s]))
               for s in range(len(self.shapes)) for name in PRODUCTS]
        self.rng.shuffle(out)
        return out

    def prepare(self, op):
        s, name, variant = op
        p, q = self.shapes[s][:2]
        alg = self.algebra_cls(p, q)
        terms_a, terms_b = self.operands[s][variant]
        return name, alg.multivector(terms_a), alg.multivector(terms_b)

    def run(self, args):
        name, a, b = args
        return _apply(name, a, b)

    def check(self, op, args, result):
        s, name, variant = op
        p, q = self.shapes[s][:2]
        metric = [1.0] * p + [-1.0] * q
        terms_a, terms_b = self.operands[s][variant]
        o = self.oracle
        if name == "scalar_product":
            want = scale = 0.0
            for k, ca in terms_a.items():
                cb = terms_b.get(k)
                if cb is not None:
                    want += o.scalar_product({k: ca}, {k: cb}, metric)
                    scale += abs(ca * cb)
            if abs(result - want) > 1e-9 * (1.0 + scale):
                return f"scalar product {result!r}, oracle {want!r}"
            return None
        rng = random.Random(f"{self.seed}:{op}")
        present = sorted(result.terms)
        sample = rng.sample(present, min(len(present), SAMPLED_BLADES - 1))
        sample.append(rng.choice(blades(p + q, "full")))
        product = getattr(o, ORACLE_NAME[name])
        small_is_a = len(terms_a) <= len(terms_b)
        small, large = (terms_a, terms_b) if small_is_a else (terms_b, terms_a)
        for blade in sample:
            want = scale = 0.0
            for t_small, c_small in small.items():
                t_large = tuple(sorted(set(t_small) ^ set(blade)))
                c_large = large.get(t_large)
                if c_large is None:
                    continue
                pair = (({t_small: c_small}, {t_large: c_large}) if small_is_a
                        else ({t_large: c_large}, {t_small: c_small}))
                want += product(*pair, metric).get(blade, 0.0)
                scale += abs(c_small * c_large)
            got = result.coefficient(blade)
            if abs(got - want) > 1e-9 * (1.0 + scale):
                return f"coefficient of {blade}: {got!r}, oracle {want!r}"
        return None
