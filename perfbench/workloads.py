"""The benchmark's three workloads, built from a seed.

A workload is a list of blocks.  Each block makes its inputs in `prepare`
(set-up, untimed), runs lexdist in `run` (checker time), and afterwards
reports its operation count, its failed operations, the CLI report bytes
it produced and the problems the independent checks in oracle.py found.
Blocks drive the `verify` kinds and `betti` through `lexdist.cli.main`,
as a user would, and the two acceptance loops without a CLI form through
the same library calls as tests/test_acceptance.py.
"""

from __future__ import annotations

import json
import os
import random
from functools import cached_property
from math import comb

import oracle
from spans import rebind, restore

P = 32003
# check_characteristic accepts it, but rank_mod's int64 products overflow
# for p >= 2**31: the fault this workload keeps as counted failures.
LARGE_P = 4294967311
LARGE_P_SEED = 1
LARGE_P_SAMPLES = 20

X1SQ = {"n": 3, "pieces": [{"i": 1, "gens": [[2]]}], "powers": []}
X1SQ_X2CU = {"n": 3, "pieces": [{"i": 1, "gens": [[2]]}], "powers": [2, 3]}
# the three Shakin rings of acceptance criterion 02, with their base ideals
SHAKIN_RINGS = [
    ({"n": 3, "pieces": [{"i": 1, "gens": [[2]]}], "powers": [2, 2, 3]},
     [(2, 0, 0), (0, 2, 0), (0, 0, 3)]),
    ({"n": 3, "pieces": [{"i": 1, "gens": [[3]]}], "powers": []}, [(3, 0, 0)]),
    ({"n": 3, "pieces": [], "powers": [2, 2, 2]}, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
]


class Block:
    """One timed piece of a workload; subclasses fill in the four hooks."""

    name = "block"

    def prepare(self, workdir):
        """Write the inputs (set-up time)."""

    def run(self):
        """The timed call into lexdist."""

    def failed(self) -> int:
        return 0

    def output(self) -> bytes:
        return b""

    def check(self) -> list:
        return []


class CliBlock(Block):
    """One `lexdist` command; its report goes to a file via --out."""

    def __init__(self, name, argv, ops, files=None):
        self.name = name
        self.argv = list(argv)
        if ops is not None:
            self.ops = ops
        self.files = files or {}
        self.rc = None

    def prepare(self, workdir):
        for flag, data in self.files.items():
            path = os.path.join(workdir, f"{self.name}.{flag.strip('-')}.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            self.argv += [flag, path]
        self.out = os.path.join(workdir, f"{self.name}.out.json")
        self.argv += ["--out", self.out]

    def run(self):
        from lexdist import cli

        self.rc = cli.main(self.argv)

    def output(self) -> bytes:
        with open(self.out, "rb") as fh:
            return fh.read()

    def report(self) -> dict:
        return json.loads(self.output())

    def failed(self) -> int:
        if self.rc not in (0, 1):
            return self.ops
        return len(self.report().get("failures", []))

    def check(self) -> list:
        if self.rc not in (0, 1):
            return [f"{self.name}: exit code {self.rc}: {self.output()[:200]!r}"]
        return []


class EnumerationBlock(CliBlock):
    """An exhaustive verify kind; its case count is recounted independently."""

    def __init__(self, name, kind, ring, base_gens, dmax):
        super().__init__(
            name, ["verify", kind, "--dmax", str(dmax), "--budget", str(10 ** 7)],
            None, {"--shakin": ring})
        self.base_gens, self.dmax = base_gens, dmax

    @cached_property
    def ops(self):
        """The number of ideals the kind must enumerate, counted apart from lexdist."""
        return oracle.count_superideals(3, self.base_gens, self.dmax)

    def check(self) -> list:
        problems = super().check()
        got = self.report().get("cases_checked")
        if got != self.ops:
            problems.append(f"{self.name}: {got} cases, recount gives {self.ops}")
        return problems


class Capture:
    """Records random_distraction and koszul_betti results while a block runs."""

    def __init__(self):
        self.distractions = []
        self.tables = []
        self._undo = []

    def __enter__(self):
        from lexdist import distraction, homology

        rd, kb = distraction.random_distraction, homology.koszul_betti

        def random_distraction(*args, **kwargs):
            d = rd(*args, **kwargs)
            self.distractions.append(([list(row) for row in d.rows], d.p))
            return d

        def koszul_betti(ideal, *args, **kwargs):
            table = kb(ideal, *args, **kwargs)
            # a distracted Ideal carries its field; a MonomialIdeal does not
            gens = None if hasattr(ideal, "p") else ideal.gens
            self.tables.append((gens, table.as_dict()))
            return table

        self._undo = rebind(rd, random_distraction) + rebind(kb, koszul_betti)
        return self

    def __exit__(self, *exc):
        restore(self._undo)


class BettiInvarianceBlock(CliBlock):
    """`verify betti-invariance`; every sampled distraction and table is rechecked."""

    def __init__(self, name, n, samples, dmax, seed, p=P):
        argv = ["verify", "betti-invariance", "--n", str(n), "--samples", str(samples),
                "--dmax", str(dmax), "--seed", str(seed), "--char", str(p)]
        super().__init__(name, argv, samples)
        self.n, self.dmax = n, dmax

    def run(self):
        with Capture() as self.capture:
            super().run()

    def check(self) -> list:
        problems = super().check()
        cap = self.capture
        failed = {
            (json.dumps(f["ideal"]["gens"]),
             json.dumps([[e["c"] for e in row] for row in f["distraction"]["rows"]]))
            for f in self.report().get("failures", [])
        }
        if len(cap.distractions) != self.ops or len(cap.tables) != 2 * self.ops:
            return problems + [f"{self.name}: captured {len(cap.distractions)} samples"]
        for k, (rows, p) in enumerate(cap.distractions):
            (gens, left), (_, right) = cap.tables[2 * k], cap.tables[2 * k + 1]
            key = (json.dumps([list(g) for g in gens]), json.dumps(rows))
            if key in failed:
                continue
            problems += oracle.check_distraction(rows, p)
            hf = oracle.hilbert(gens, self.n, self.dmax)
            problems += oracle.check_betti(left, gens, self.n, self.dmax, hf)
            problems += oracle.check_betti(right, gens, self.n, self.dmax, hf)
        return [f"{self.name}: {p}" for p in problems]


class CodistraBlock(CliBlock):
    def __init__(self, name, samples, dmax, seed):
        super().__init__(name, ["verify", "codistra-h0", "--n", "3", "--samples",
                                str(samples), "--dmax", str(dmax), "--seed", str(seed)],
                         samples)

    def run(self):
        with Capture() as self.capture:
            super().run()

    def check(self) -> list:
        problems = super().check()
        if len(self.capture.distractions) != self.ops:
            problems.append(f"{self.name}: captured {len(self.capture.distractions)} distractions")
        for rows, p in self.capture.distractions:
            problems += oracle.check_distraction(rows, p)
        return problems


class SampledShakinBlock(CliBlock):
    """distraction-hf / epsilon-d-extremal over a ring, with a seeded distraction."""

    def __init__(self, name, kind, ring, rows, samples, dmax, seed):
        super().__init__(name, ["verify", kind, "--samples", str(samples), "--dmax", str(dmax),
                                "--seed", str(seed)], samples,
                         {"--shakin": ring,
                          "--distraction": {"n": 3, "char": P,
                                            "rows": [[{"c": list(e)} for e in r] for r in rows]}})
        self.rows = rows

    def check(self) -> list:
        problems = super().check()
        if self.report().get("cases_checked", 0) < self.ops:
            problems.append(f"{self.name}: fewer cases than samples")
        return problems + oracle.check_distraction(self.rows, P)


class BettiBlock(CliBlock):
    """`lexdist betti` on one monomial ideal; the table is checked against HS."""

    def __init__(self, name, n, gens, dmax):
        super().__init__(name, ["betti", "--dmax", str(dmax)], 1,
                         {"--ideal": {"n": n, "gens": [list(g) for g in gens]}})
        self.n, self.gens, self.dmax = n, gens, dmax

    def failed(self) -> int:
        return 0 if self.rc == 0 else 1

    def check(self) -> list:
        problems = super().check()
        entries = self.report().get("entries", {})
        table = {tuple(map(int, k.split(","))): v for k, v in entries.items()}
        return problems + [f"{self.name}: {p}" for p in
                           oracle.check_betti(table, self.gens, self.n, self.dmax)]


class RoundTripBlock(Block):
    """Acceptance 01: HF -> lex ideal -> HF, on seeded ideals (n=3, dmax 6)."""

    name = "macaulay-round-trip"

    def __init__(self, count, seed):
        self.ops = count
        self.seed = seed

    def run(self):
        from lexdist import macaulay, monomials, verify

        rng = random.Random(self.seed)
        self.records = []
        for _ in range(self.ops):
            ideal = verify.random_monomial_ideal(rng, 3, max_degree=6, max_gens=6)
            values = monomials.hilbert_function(ideal, 6)
            lex = macaulay.lex_ideal_for_hf(3, values)
            self.records.append((ideal.gens, values, lex.gens, monomials.hilbert_function(lex, 6)))

    def failed(self) -> int:
        return sum(1 for _, v, _, back in self.records if back != v)

    def check(self) -> list:
        problems = []
        for gens, values, lex_gens, back in self.records:
            problems += oracle.check_hilbert(gens, 3, 6, values)
            problems += oracle.check_hilbert(lex_gens, 3, 6, back)
        return problems


class HilbertPreservationBlock(Block):
    """Acceptance 05: distraction keeps the HF (200 ideals, 6 columns, dmax 8)."""

    name = "hilbert-preservation"

    def __init__(self, count, seed):
        self.ops = count
        self.seed = seed

    def run(self):
        from lexdist import distraction, groebner, monomials, verify

        rng = random.Random(self.seed)
        self.records = []
        for _ in range(self.ops):
            ideal = verify.random_monomial_ideal(rng, 3, max_degree=5, max_gens=6)
            d = distraction.random_distraction(rng, 3, P, columns=6)
            got = groebner.hilbert_function(distraction.distract_ideal(d, ideal), 8)
            self.records.append((ideal.gens, [list(r) for r in d.rows], got,
                                 monomials.hilbert_function(ideal, 8)))

    def failed(self) -> int:
        return sum(1 for _, _, got, want in self.records if got != want)

    def check(self) -> list:
        problems = []
        for gens, rows, got, want in self.records:
            problems += oracle.check_hilbert(gens, 3, 8, want)
            problems += oracle.check_hilbert(gens, 3, 8, got)
            problems += oracle.check_distraction(rows, P, columns=6)
        return problems


# ---------------------------------------------------------------------------
# seeded inputs made by the benchmark itself
# ---------------------------------------------------------------------------

def seeded_distraction(rng, n, columns, p=P):
    """Entries a*x_i + b*x_k, redrawn until every selection is a basis."""
    while True:
        rows = []
        for i in range(n):
            row = []
            for _ in range(columns):
                c = [0] * n
                c[i] = rng.randrange(1, p)
                c[rng.choice([j for j in range(n) if j != i])] = rng.randrange(p)
                row.append(tuple(c))
            rows.append(row)
        if not oracle.check_distraction(rows, p):
            return rows


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def quick_hilbert(gens, n, upto):
    """Quotient HF by inclusion-exclusion over generator subsets (few gens)."""
    shifts = {}

    def rec(idx, cur, sign):
        for k in range(idx, len(gens)):
            nxt = gens[k] if cur is None else _lcm(cur, gens[k])
            deg = sum(nxt)
            shifts[deg] = shifts.get(deg, 0) - sign
            rec(k + 1, nxt, -sign)

    rec(0, None, -1)
    return tuple(comb(d + n - 1, n - 1) - sum(c * comb(d - s + n - 1, n - 1)
                                              for s, c in shifts.items() if s <= d)
                 for d in range(upto + 1))


def strand_cells(dims, n, dmax):
    """Entries of the largest dense Koszul strand for quotient dims."""
    return max(comb(n, i - 1) * dims[j - i + 1] * comb(n, i) * dims[j - i]
               for i in range(1, n + 1) for j in range(i, dmax + 1))


# Band on the largest strand of the n=6 `betti` ideals: strand size sets
# both the time (about 0.3 reference seconds per million entries) and the
# peak memory of a Koszul computation, so holding it in a band keeps the
# workload's cost steady from seed to seed while the ideals themselves vary.
WIDE_CELLS = (1_000_000, 1_400_000)


def wide_ideal(rng, n=6, dmax=7):
    while True:
        gens = []
        for _ in range(rng.randint(4, 8)):
            e = [0] * n
            for _ in range(rng.randint(2, 3)):
                e[rng.randrange(n)] += 1
            gens.append(tuple(e))
        gens = oracle.minimal_generators(gens)
        cells = strand_cells(quick_hilbert(gens, n, dmax + 1), n, dmax)
        if WIDE_CELLS[0] <= cells <= WIDE_CELLS[1]:
            return gens


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def shakin_exhaustive(seed):
    rng = random.Random(f"shakin-exhaustive:{seed}")
    blocks = [RoundTripBlock(500, rng.randrange(2 ** 31))]
    for k, (ring, base) in enumerate(SHAKIN_RINGS):
        blocks.append(EnumerationBlock(f"macaulay-lex-{k}", "macaulay-lex", ring, base, 4))
    blocks.append(EnumerationBlock("betti-extremal", "betti-extremal", X1SQ, [(2, 0, 0)], 4))
    blocks.append(EnumerationBlock("coh-extremal", "coh-extremal", X1SQ_X2CU,
                                   [(2, 0, 0), (0, 3, 0)], 4))
    return blocks


# epsilon-d-extremal's 50 samples use a fixed seed and a fixed distraction:
# their cost (Buchberger on dense random forms, Koszul on the result) varies
# by a factor of two from one sample set to the next, which would swamp the
# workload's rate from seed to seed.
EPSILON_SEED = 1


def distraction_sampled(seed):
    rng = random.Random(f"distraction-sampled:{seed}")
    sub = [rng.randrange(2 ** 31) for _ in range(4)]
    rows = seeded_distraction(rng, 3, 6)
    fixed_rows = seeded_distraction(random.Random(f"epsilon-d-extremal:{EPSILON_SEED}"), 3, 6)
    return [
        HilbertPreservationBlock(200, sub[0]),
        BettiInvarianceBlock("betti-invariance", 3, 100, 6, sub[1]),
        CodistraBlock("codistra-h0", 100, 6, sub[2]),
        SampledShakinBlock("distraction-hf", "distraction-hf", X1SQ_X2CU, rows, 100, 5, sub[3]),
        SampledShakinBlock("epsilon-d-extremal", "epsilon-d-extremal", X1SQ, fixed_rows, 50, 5,
                           EPSILON_SEED),
        BettiInvarianceBlock("betti-invariance-large-p", 3, LARGE_P_SAMPLES, 6,
                             LARGE_P_SEED, LARGE_P),
    ]


# The eight n=5 samples of betti-wide come from the fixed seed of acceptance
# criterion 04: their Koszul cost varies by about 40% from one sample set to
# the next, which at eight samples would swamp the workload's rate from seed
# to seed.  The seed varies the ten n=6 ideals, whose cost is held in a band.
WIDE_INVARIANCE_SEED = 104


def betti_wide(seed):
    rng = random.Random(f"betti-wide:{seed}")
    blocks = [BettiInvarianceBlock("betti-invariance-n5", 5, 8, 7, WIDE_INVARIANCE_SEED)]
    for k in range(10):
        blocks.append(BettiBlock(f"betti-n6-{k}", 6, wide_ideal(rng), 7))
    return blocks


WORKLOADS = {
    "shakin-exhaustive": shakin_exhaustive,
    "distraction-sampled": distraction_sampled,
    "betti-wide": betti_wide,
}
