"""Every rejection of the frame and space text readers, pinned by class,
message and line number (None where the message names no line)."""

import pytest

from localelab import frames, spaces
from localelab.frames import FrameFormatError
from localelab.spaces import SpaceFormatError

FRAME = frames.parse_frame_text
SPACE = spaces.parse_space_text

# (reader, text, error class, message, line)
REJECTIONS = [
    (FRAME, "elements 2\n", FrameFormatError,
     "line 1: expected 'key: value', got 'elements 2'", 1),
    (FRAME, "elements: 2\n\nwhat: 1\n", FrameFormatError,
     "line 3: unknown key 'what'", 3),
    (FRAME, "elements: 2\nelements: 2\n", FrameFormatError,
     "line 2: duplicate 'elements' line", 2),
    (FRAME, "elements: two\n", FrameFormatError,
     "line 1: 'elements' takes one decimal count", 1),
    (FRAME, "  elements: 1 2\n", FrameFormatError,
     "line 1: 'elements' takes one decimal count", 1),
    (FRAME, "elements: 2\ncover: 0\n", FrameFormatError,
     "line 2: 'cover' takes two decimal ids", 2),
    (FRAME, "elements: 2\ncover: 0 x\n", FrameFormatError,
     "line 2: 'cover' takes two decimal ids", 2),
    (FRAME, "elements: 2\nlabel: x y\n", FrameFormatError,
     "line 2: 'label' takes an id and a name", 2),
    (FRAME, "elements: 2\ncover: 0\nwhat: 1\n", FrameFormatError,
     "line 2: 'cover' takes two decimal ids", 2),
    (FRAME, "cover: 0 1\nwhat: 1\nelements: 2\n", FrameFormatError,
     "line 2: unknown key 'what'", 2),
    (FRAME, "elements: 2\ncover: 0 5\n", FrameFormatError,
     "line 2: cover id out of range: 0 5", 2),
    (FRAME, "elements: 2\ncover: 0 1\nlabel: 5 far\n", FrameFormatError,
     "line 3: label id out of range: 5", 3),
    (FRAME, "cover: 0 1\n", FrameFormatError, "missing 'elements' line", None),
    (FRAME, "", FrameFormatError, "missing 'elements' line", None),
    (FRAME, "elements: 3\ncover: 0 1\ncover: 0 1\n", FrameFormatError,
     "3 elements need at least 2 distinct 'cover' lines, got 1", None),
    (SPACE, "points 2\n", SpaceFormatError,
     "line 1: expected 'key: value', got 'points 2'", 1),
    (SPACE, "points: 1\nclosed: 0\n", SpaceFormatError,
     "line 2: unknown key 'closed'", 2),
    (SPACE, "points: 1\npoints: 1\n", SpaceFormatError,
     "line 2: duplicate 'points' line", 2),
    (SPACE, "points: -1\n", SpaceFormatError,
     "line 1: 'points' takes one decimal count", 1),
    (SPACE, "points: 1\nopen: a\n", SpaceFormatError,
     "line 2: 'open' takes decimal point ids", 2),
    (SPACE, "points: 1\nopen: a\nclosed: 0\n", SpaceFormatError,
     "line 2: 'open' takes decimal point ids", 2),
    (SPACE, "points: 1\nopen:\nopen: 0 3\n", SpaceFormatError,
     "line 3: point id out of range", 3),
    (SPACE, "open:\n", SpaceFormatError, "missing 'points' line", None),
    (SPACE, "points: 2\nopen: 0 1\n", SpaceFormatError,
     "a topology must contain the empty set and the space", None),
    # appended, not inserted, so the ids of the rows above stay as they were
    (FRAME, "elements: 2\nlabel: 1 top\ncover: 0 1\nlabel: 1 up\n", FrameFormatError,
     "line 4: duplicate label id: 1", 4),
]


@pytest.mark.parametrize(
    "reader, text, error, message, line", REJECTIONS,
    ids=[f"{reader.__name__}-{i}" for i, (reader, *_) in enumerate(REJECTIONS)])
def test_rejection_is_pinned(reader, text, error, message, line):
    with pytest.raises(error) as exc:
        reader(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.line == line
