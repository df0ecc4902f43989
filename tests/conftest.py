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
        for rel in frames.all_posets(k):
            out.append(frames.downset_lattice(rel))
    return out
