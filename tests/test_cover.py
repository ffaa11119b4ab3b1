import pytest

from ppric.cover import Cover
from ppric.errors import ParameterError


def test_lane_holds_counts_up_to_255():
    big = (1 << 255) - 1
    # overlaps 255 and 254 against bound 255: only the second is covered
    inst = Cover([big], [([big, big >> 1], 255)])
    assert inst.cover == [0b10]
    assert inst.handler == [0, 1]


def test_lane_guard():
    heavy = (1 << 256) - 1
    with pytest.raises(ParameterError, match="byte lane"):
        Cover([heavy], [([heavy], 1)])
    # light elements bound every overlap, however heavy the candidates
    far = 0b11 << 300
    inst = Cover([heavy, far | 1 << 302], [([0b11, far], 2)])
    assert inst.cover == [0b10, 0b01]
    assert inst.handler == [0b10, 0b01]
