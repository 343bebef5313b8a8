"""Observed count data as a histogram of frequencies."""

from __future__ import annotations

import operator
import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import DataError

# Counts above this would force pmf tables of the same length; reject early.
MAX_OBSERVED_COUNT = 10**6

#: from_observations counts a tuple or list this long or longer as bytes.
_BYTE_PATH_MIN = 256
#: The byte path's probe reads about this many values, evenly spaced, and
#: leaves the input to Counter when they hold more than _PROBE_DISTINCT_MAX
#: distinct values: each costs a pass over the input.
_PROBE = 64
_PROBE_DISTINCT_MAX = 24
#: In an input this long or longer, the byte path counts the values its
#: probe holds more than once as bit planes, _SLICE bytes at a time, and
#: _PLANES[i] keeps bit i of every byte; in a shorter one, the planes' fixed
#: cost is more than they save.
_PLANES_MIN = 1024
_SLICE = 1 << 13
_PLANES = tuple(int.from_bytes(bytes((1 << i,)) * _SLICE, "little") for i in range(8))


@dataclass(frozen=True, slots=True)
class CountHistogram:
    """Observed counts stored as sorted (count, frequency) pairs.

    The canonical sorted representation makes every downstream reduction
    (likelihoods, moments) independent of how the data were ingested, so a
    raw list of observations and its pre-aggregated histogram give
    bit-identical results.
    """

    bins: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = []
        try:
            for count, freq in self.bins:
                try:
                    integral = count == int(count) and freq == int(freq)
                except (OverflowError, TypeError, ValueError):  # int() of inf, nan, None
                    integral = False
                if not integral:
                    raise DataError("histogram entries must be integers")
                count, freq = int(count), int(freq)
                if count < 0:
                    raise DataError(f"negative count {count} in histogram")
                if count > MAX_OBSERVED_COUNT:
                    raise DataError(f"count {count} exceeds the supported maximum {MAX_OBSERVED_COUNT}")
                if freq <= 0:
                    raise DataError(f"frequency for count {count} must be positive, got {freq}")
                if freq > sys.float_info.max:
                    raise DataError(f"frequency for count {count} exceeds the double range")
                pairs.append((count, freq))
        except DataError:  # a subclass of ValueError, raised above
            raise
        except (TypeError, ValueError):  # bins that are not an iterable of pairs
            raise DataError("histogram bins must be (count, frequency) pairs") from None
        if not pairs:
            raise DataError("histogram is empty")
        # A larger total lets the likelihood's sum of freq * log p_k overflow.
        if sum(f for _, f in pairs) > 2**53:
            raise DataError("total frequency n exceeds 2**53, where counts stop being exact doubles")
        pairs.sort()
        counts = [c for c, _ in pairs]
        if len(set(counts)) != len(counts):
            raise DataError("histogram counts must be distinct")
        object.__setattr__(self, "bins", tuple(pairs))

    @classmethod
    def from_observations(cls, values: Iterable[int]) -> "CountHistogram":
        """Aggregate raw observations into a histogram.

        A tuple or list of at least ``_BYTE_PATH_MIN`` values is first tried
        as bytes (see :func:`_byte_bins`); every other input, and one the
        byte path refuses, is counted by a ``collections.Counter``.  A tuple
        or list that Counter cannot hash is counted again through
        ``operator.index``, and a value Counter holds that is not an int but
        has ``__index__`` is counted as the integer that gives; so a 0-d
        integer array, or an object with ``__index__`` alone, counts as its
        integer at every length, as it does on the byte path.  Both ways give
        the same bins or the same DataError for every value but one that has
        ``__index__`` and compares equal to an integer other than the one
        that gives.  An array, ``bytes`` or other buffer is never read as
        bytes, which would count its raw memory, not its values.
        """
        if type(values) in (tuple, list) and len(values) >= _BYTE_PATH_MIN:
            bins = _byte_bins(values)
            if bins is not None:
                # _byte_bins's bins pass every check: built as they stand
                hist = object.__new__(cls)
                object.__setattr__(hist, "bins", bins)
                return hist
        try:
            counted = Counter(values)
        except TypeError:  # not iterable, or an unhashable observation
            counted = _indexed(values)
        else:
            if set(map(type, counted)) - {int}:
                counted = _merged(counted)
        return cls(tuple(counted.items()))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "CountHistogram":
        try:
            items = mapping.items()
        except AttributeError:
            kind = type(mapping).__name__
            raise DataError(f"a histogram needs a mapping of count to frequency, got {kind}") from None
        return cls(tuple(items))

    @property
    def n(self) -> int:
        """Total number of observations."""
        return sum(f for _, f in self.bins)

    @property
    def max_count(self) -> int:
        return self.bins[-1][0]

    def mean(self) -> float:
        return sum(c * f for c, f in self.bins) / self.n

    def as_dict(self) -> dict[int, int]:
        return dict(self.bins)


def _indexed(values) -> Counter:
    """A Counter of the integers of ``values``, a tuple or list with a value
    that does not hash; DataError when one has no ``__index__`` or its
    ``__index__`` fails, or when ``values`` is any other container."""
    try:
        if type(values) in (tuple, list):
            return Counter(map(operator.index, values))
    except (OverflowError, TypeError, ValueError):
        pass
    raise DataError("observations must be an iterable of integers") from None


def _merged(counted: Counter) -> Counter:
    """``counted`` with each key that is not an int but has ``__index__``
    counted as the integer that gives, as bytes() reads it on the byte path;
    a key whose ``__index__`` fails is kept, for CountHistogram to refuse.
    The keys keep their order, so the first refused one is the same."""
    merged = Counter()
    for key, freq in counted.items():
        if not isinstance(key, int) and hasattr(type(key), "__index__"):
            try:
                key = operator.index(key)
            except (OverflowError, TypeError, ValueError):
                pass
        merged[key] += freq
    return merged


def _byte_bins(values: tuple | list) -> tuple[tuple[int, int], ...] | None:
    """The sorted (count, frequency) pairs of ``values``, a tuple or list of
    integers in 0..255 whose probe holds few distinct values, or None: ints,
    each count distinct and every frequency positive, as CountHistogram
    would store them.

    ``bytearray(values)`` is an exact check: it raises on any value that is
    not an integer (has no ``__index__``) or lies outside 0..255, as
    ``bytes()`` does, at half its cost.  A strided probe of about ``_PROBE``
    values, plus the last, sends an input with many distinct values, or with
    a value outside 0..255 that the probe sees, on to Counter at once.

    In an input of at least ``_PLANES_MIN`` values, up to 8 values the probe
    holds more than once are each mapped to one bit of a byte by one
    ``translate``, and each bit plane of the result, read as an integer, is
    counted by ``int.bit_count``: branch-free passes, where ``bytes.count``
    slows with the share of the input that is the value it counts.  The other
    probe values are rare and keep ``bytes.count``, and whatever none of them
    is (the unseen tail) is counted by a Counter over the bytes left.
    """
    try:
        probe = bytearray(values[:: len(values) // _PROBE] + values[-1:])
        seen = set(probe)
        if len(seen) > _PROBE_DISTINCT_MAX:
            return None
        octets = bytearray(values)
    except (OverflowError, TypeError, ValueError):  # a non-integer, one outside 0..255, or a failing __index__
        return None
    often = []
    if len(octets) >= _PLANES_MIN:
        ranked = sorted(seen, key=probe.count, reverse=True)
        often = [k for k in ranked[:8] if probe.count(k) > 1]
    bins = [(k, octets.count(k)) for k in seen.difference(often)]
    if often:
        table = bytearray(256)
        for i, k in enumerate(often):
            table[k] = 1 << i
        bits = octets.translate(table)
        planes = _PLANES[: len(often)]
        counts = [0] * len(often)
        for start in range(0, len(bits), _SLICE):
            x = int.from_bytes(bits[start : start + _SLICE], "little")
            counts = [c + (x & plane).bit_count() for c, plane in zip(counts, planes)]
        bins += zip(often, counts)
    rest = octets.translate(None, bytes(seen))
    if rest:
        bins += Counter(rest).items()
    bins.sort()
    return tuple(bins)
