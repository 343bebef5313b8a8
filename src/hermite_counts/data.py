"""Observed count data as a histogram of frequencies."""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import DataError

# Counts above this would force pmf tables of the same length; reject early.
MAX_OBSERVED_COUNT = 10**6


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
        """Aggregate raw observations into a histogram."""
        try:
            counted = Counter(values)
        except TypeError:  # not iterable, or an unhashable observation
            raise DataError("observations must be an iterable of integers") from None
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
