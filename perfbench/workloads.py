"""Seeded inputs for the benchmark workloads.

Every input is made here from the benchmark seed, before any timing
starts; the program under test only sees the argv and frame files built
below.  Nothing in this module imports localelab, so a change to the
program cannot change its own inputs.

Input sizes are stated rather than left to chance: the cost of one frame
spans three orders of magnitude with its number of points and elements,
so a random mix of frames would make every run a different workload, and
the median of a random mix jumps between frame sizes.

* A verify workload fixes the multiset of frame shapes (points, elements)
  that `localelab verify` draws; the seed picks the first CLI seed, in a
  seed-derived sequence, whose frame stream starts with exactly that
  multiset (in any order).  The program then draws and verifies those
  frames itself.  verify_large, a single frame, also fixes the poset up
  to isomorphism: frames of one shape still differ in cost by a quarter.
* The analyze corpus is the 64-element Boolean frame plus frames drawn
  from a fixed pool of 7-point posets with 10 elements, with element ids
  renamed at random.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

# verify: (bound, {(points, elements): frames}).  The bound-4 generator
# gives each point count 1 to 4 a quarter of the frames; verify_small takes
# two frames per point count, each at the commonest element count for that
# point count.  About 1 CLI seed in 24000 starts this way.
VERIFY = {
    "verify_small": (4, {(1, 2): 2, (2, 4): 2, (3, 6): 2, (4, 12): 2}),
    "verify_large": (6, {(6, 16): 1}),
}
# verify_large's frame: the commonest (15%) of the 26 isomorphism classes
# of the 6-point posets with 16 downsets that the bound-6 generator draws,
# as canonical_order gives it: a 4-chain 0<1<2<3, a point 4 below 2, and an
# isolated point 5.
VERIFY_POSET = {
    "verify_large": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)),
}
SEED_TRIES = 1_000_000

# analyze_files: the 64-element Boolean frame plus DRAWN frames from a pool
# of POOL_SIZE posets with POOL_POINTS points and POOL_ELEMENTS elements
POOL_SEED = 20201117
POOL_SIZE = 12
POOL_POINTS = 7
POOL_ELEMENTS = 10
DRAWN = 4
BOOLEAN_POINTS = 6

# analyze_refuse: frames whose assemblies exceed the cap (chain, a x b products)
REFUSE_CAP = 4096
REFUSE_FRAMES = (("chain22", 22, 1), ("grid10x10", 10, 10), ("grid14x14", 14, 14))

WORKLOADS = ("verify_small", "verify_large", "analyze_files", "analyze_refuse")


@dataclass
class Inputs:
    """What one workload runs: the CLI argv, the expected facts, the files."""

    argv: list
    kind: str                      # "verify" or "analyze"
    expected: dict
    files: dict = field(default_factory=dict)   # relative name -> text


# ---------------------------------------------------------------------------
# posets and their downset lattices, independent of localelab

def _closure(size, pairs):
    """below[j]: bitmask of the points <= j in the reflexive-transitive closure."""
    below = [1 << j for j in range(size)]
    for i, j in pairs:
        below[j] |= 1 << i
    changed = True
    while changed:
        changed = False
        for j in range(size):
            m = below[j]
            acc = m
            for i in range(size):
                if m >> i & 1:
                    acc |= below[i]
            if acc != m:
                below[j] = acc
                changed = True
    return below


def downsets(size, below):
    """All downsets of a poset as bitmasks, smallest first."""
    out = []
    for mask in range(1 << size):
        if all(below[p] & ~mask == 0 for p in range(size) if mask >> p & 1):
            out.append(mask)
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def _random_poset(rng, size):
    density = rng.uniform(0.15, 0.75)
    return [(i, j) for i in range(size) for j in range(i + 1, size)
            if rng.random() < density]


def cli_posets(cli_seed, bound):
    """(points, below) of each poset `localelab verify` draws from a seed.

    Mirrors frames.random_frame draw for draw: a size, a density, then one
    draw per ordered pair of points (frames.random_poset).
    """
    rng = random.Random(cli_seed)
    while True:
        size = rng.randint(1, bound)
        yield size, _closure(size, _random_poset(rng, size))


def cli_stream(cli_seed, bound):
    """(points, elements) of each frame `localelab verify` draws from a seed."""
    for size, below in cli_posets(cli_seed, bound):
        yield size, len(downsets(size, below))


def canonical_order(size, below):
    """The strict order as sorted (lower, upper) pairs, least over all
    relabellings: equal exactly for isomorphic posets."""
    pairs = [(i, j) for j in range(size) for i in range(size)
             if i != j and below[j] >> i & 1]
    return min(tuple(sorted((p[i], p[j]) for i, j in pairs))
               for p in itertools.permutations(range(size)))


def lattice_text(size, below, perm):
    """Frame file of the downset lattice, element ids renamed by perm."""
    ds = downsets(size, below)
    index = {m: i for i, m in enumerate(ds)}
    lines = [f"elements: {len(ds)}"]
    for m in ds:
        for p in range(size):
            if not m >> p & 1 and (m | 1 << p) in index:
                lines.append(f"cover: {perm[index[m]]} {perm[index[m | 1 << p]]}")
    return "\n".join(lines) + "\n"


def grid_text(a, b, perm):
    """Frame file of the product of an a-chain and a b-chain, from its covers."""
    lines = [f"elements: {a * b}"]
    for i in range(a):
        for j in range(b):
            here = perm[i * b + j]
            if i + 1 < a:
                lines.append(f"cover: {here} {perm[(i + 1) * b + j]}")
            if j + 1 < b:
                lines.append(f"cover: {here} {perm[i * b + j + 1]}")
    return "\n".join(lines) + "\n"


def pool():
    """The fixed analyze pool: {key: (points, below)}; the same for every seed."""
    rng = random.Random(POOL_SEED)
    out = {"boolean64": (BOOLEAN_POINTS, [1 << j for j in range(BOOLEAN_POINTS)])}
    while len(out) <= POOL_SIZE:
        below = _closure(POOL_POINTS, _random_poset(rng, POOL_POINTS))
        if len(downsets(POOL_POINTS, below)) == POOL_ELEMENTS:
            out[f"p{len(out) - 1:02d}"] = (POOL_POINTS, below)
    return out


def _shuffled(rng, n):
    """A random renaming of n element ids; the identity when rng is None."""
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# workloads

def verify_inputs(workload, seed):
    bound, shapes = VERIFY[workload]
    poset = VERIFY_POSET.get(workload)
    count = sum(shapes.values())
    for attempt in range(SEED_TRIES):
        cli_seed = seed * SEED_TRIES + attempt
        left = dict(shapes)
        elements = []
        for size, below in itertools.islice(cli_posets(cli_seed, bound), count):
            shape = (size, len(downsets(size, below)))
            if not left.get(shape) or \
                    poset is not None and canonical_order(size, below) != poset:
                break
            left[shape] -= 1
            elements.append(shape[1])
        if len(elements) < count:
            continue
        argv = ["verify", "--seed", str(cli_seed), "--bound", str(bound),
                "--count", str(len(elements))]
        return Inputs(argv, "verify", {"exit": 0, "elements": elements})
    raise RuntimeError(f"no CLI seed meets the {workload} input size for seed {seed}")


def analyze_files_inputs(seed, reference):
    rng = random.Random(seed)
    frames_pool = pool()
    keys = ["boolean64"] + [f"p{i:02d}" for i in rng.sample(range(POOL_SIZE), DRAWN)]
    rng.shuffle(keys)
    files = {}
    for i, key in enumerate(keys):
        points, below = frames_pool[key]
        n = len(downsets(points, below))
        files[f"f{i}_{key}.frame"] = lattice_text(points, below, _shuffled(rng, n))
    argv = ["analyze", "--format", "keyvalue"]
    expected = {"exit": 0, "records": [reference[k] for k in keys]}
    return Inputs(argv, "analyze", expected, files)


def refuse_texts(rng):
    """(key, frame text) of each cap-exceeding frame, ids renamed by rng."""
    out = []
    for key, a, b in REFUSE_FRAMES:
        out.append((key, grid_text(a, b, _shuffled(rng, a * b))))
    return out


def analyze_refuse_inputs(seed, reference):
    rng = random.Random(seed)
    files = {}
    keys = []
    for i, (key, text) in enumerate(refuse_texts(rng)):
        files[f"f{i}_{key}.frame"] = text
        keys.append(key)
    argv = ["analyze", "--format", "keyvalue", "--cap", str(REFUSE_CAP)]
    expected = {"exit": 3, "records": [reference[k] for k in keys]}
    return Inputs(argv, "analyze", expected, files)


def make_inputs(workload, seed, reference, input_dir):
    """Build a workload's inputs; frame files are written under input_dir."""
    if workload in VERIFY:
        inputs = verify_inputs(workload, seed)
    elif workload == "analyze_files":
        inputs = analyze_files_inputs(seed, reference)
    elif workload == "analyze_refuse":
        inputs = analyze_refuse_inputs(seed, reference)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if inputs.files:
        os.makedirs(input_dir, exist_ok=True)
        for name, text in inputs.files.items():
            path = os.path.join(input_dir, name)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            inputs.argv.append(path)
    return inputs
