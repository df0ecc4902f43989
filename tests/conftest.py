import itertools
import random

import numpy as np
import pytest

from localelab import frames, spaces


def chain(n, labels=None):
    return frames.frame_from_covers(n, [(i, i + 1) for i in range(n - 1)],
                                    labels=labels)


def boolean_square():
    """Downsets of the 2-point antichain: 0 < p, q < 1."""
    return frames.downset_lattice(np.eye(2, dtype=bool))


def antichain2_plus_top():
    """Downsets of the poset x, y < z: the square with one more top."""
    rel = frames.transitive_reflexive_closure(3, [(0, 2), (1, 2)])
    return frames.downset_lattice(rel)


def m3_relation():
    return frames.transitive_reflexive_closure(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5_relation():
    return frames.transitive_reflexive_closure(
        5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def grid_relation(a, b):
    """Order of the a x b grid, the product of an a-chain and a b-chain."""
    covers = [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    covers += [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    return frames.transitive_reflexive_closure(a * b, covers)


def random_frames(seed, bound, count):
    """count frames drawn by frames.random_frame from one seeded generator,
    as verify draws them."""
    rng = random.Random(seed)
    return [frames.random_frame(rng, bound) for _ in range(count)]


def all_posets(size):
    """All posets on `size` labelled points, one per isomorphism class.

    Every finite poset admits a linear extension, so enumerating strict
    orders contained in the integer order covers all classes; duplicates
    are removed by a minimum-over-permutations canonical form.
    """
    if size == 0:
        return [np.zeros((0, 0), dtype=bool)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    perms = list(itertools.permutations(range(size)))
    seen = set()
    out = []
    for bitsel in range(1 << len(pairs)):
        chosen = [pairs[t] for t in range(len(pairs)) if bitsel >> t & 1]
        rel = frames.transitive_reflexive_closure(size, chosen)
        canon = min(tuple(rel[list(p), :][:, list(p)].flatten().tolist())
                    for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(rel)
    return out


def all_spaces(points):
    """All topologies on the given point count, one per preorder.

    Only off-diagonal pairs are chosen, so each preorder comes once.
    """
    pairs = [(i, j) for i in range(points) for j in range(points) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        chosen = [pairs[t] for t in frames.bits_of(mask)]
        rel = frames.transitive_reflexive_closure(points, chosen)
        if rel.sum() == points + len(chosen):    # already transitive
            out.append(spaces.from_preorder(rel))
    return out


@pytest.fixture(scope="session")
def chain2():
    return chain(2)


@pytest.fixture(scope="session")
def chain3():
    return chain(3, labels=["0", "a", "1"])


@pytest.fixture(scope="session")
def square():
    return boolean_square()


@pytest.fixture(scope="session")
def sierpinski_frame():
    return spaces.omega(spaces.sierpinski()).frame


@pytest.fixture(scope="session")
def fixture_frames(chain2, chain3, square, sierpinski_frame):
    """The named frames used throughout: chains, the square, the square
    with an extra top, and the open-set frame of the two-point space."""
    return {
        "chain2": chain2,
        "chain3": chain3,
        "square": square,
        "square_plus_top": antichain2_plus_top(),
        "sierpinski": sierpinski_frame,
        "point": chain(1),
    }


@pytest.fixture(scope="session")
def small_corpus():
    """Downset lattices of every poset on at most 4 points (25 frames)."""
    out = []
    for k in range(5):
        for rel in all_posets(k):
            out.append(frames.downset_lattice(rel))
    return out
