"""Permutations indexing parallelogram trapezoids.

Images are 1-based throughout (image[j-1] = sigma(j) for j in 1..n), which
matches the bottom/top interval indexing of the geometry.  Besides the
named families (identity, reversal, the base-3 digit-swap permutation and
its block-composite extension to arbitrary n), the module provides
unranking and lexicographic enumeration of rank ranges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} stored as its image tuple."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        n = len(image)
        if n == 0:
            raise ValueError("empty permutation")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {image}")

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, j: int) -> int:
        if not 1 <= j <= len(self.image):
            raise IndexError(f"index {j} outside 1..{len(self.image)}")
        return self.image[j - 1]

    def __str__(self) -> str:
        # comma-separated 1-based images: the wire format everywhere
        return ",".join(str(v) for v in self.image)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        try:
            image = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse permutation from {text!r}") from None
        return cls(image)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for j, k in enumerate(self.image, start=1):
            inv[k - 1] = j
        return Permutation(tuple(inv))

    def mirrored(self) -> "Permutation":
        """Conjugate by the reversal r: j -> n+1-j (horizontal mirror)."""
        n = len(self.image)
        return Permutation(tuple(n + 1 - self.image[n - i] for i in range(1, n + 1)))


def identity(n: int) -> Permutation:
    _require_positive(n)
    return Permutation(tuple(range(1, n + 1)))


def reversal(n: int) -> Permutation:
    _require_positive(n)
    return Permutation(tuple(range(n, 0, -1)))


# Guard for the 3^m families: beyond this the image tuple alone is tens of
# millions of entries and nothing downstream can use it interactively.
MAX_DIGIT_SWAP_ORDER = 14


def digit_swap_permutation(m: int) -> Permutation:
    """Permutation of {1..3^m} swapping digits 1 and 2 in base 3.

    Position j maps via the m-digit base-3 expansion of j-1, sending each
    digit d to 2d mod 3 (0 stays, 1 and 2 swap).  Built level by level: in
    0-based terms, image_m[3q + r] = (0, 2, 1)[r] + 3 * image_(m-1)[q].
    """
    if m < 0:
        raise ValueError(f"negative order {m}")
    if m > MAX_DIGIT_SWAP_ORDER:
        raise ValueError(f"order {m} exceeds cap {MAX_DIGIT_SWAP_ORDER} (3^m blows up)")
    image = [0]
    for _ in range(m):
        image = [3 * v + r for v in image for r in (0, 2, 1)]
    return Permutation(tuple(v + 1 for v in image))


@dataclass(frozen=True)
class CompositePlan:
    """Base-3 block layout behind the composite permutation of {1..n}.

    ``digits`` are the base-3 digits of n, most significant first;
    ``blocks`` lists (size 3^j, count x_j) largest-size first, including
    zero-count digits as zero-count entries.
    """

    n: int
    digits: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if sum(count * size for size, count in self.blocks) != self.n:
            raise ValueError("block sizes do not add up to n")
        if any(d not in (0, 1, 2) for d in self.digits):
            raise ValueError(f"invalid base-3 digits {self.digits}")


def composite_plan(n: int) -> CompositePlan:
    _require_positive(n)
    digits = []
    z = n
    while z:
        z, r = divmod(z, 3)
        digits.append(r)
    digits.reverse()
    top = len(digits) - 1
    blocks = tuple((3 ** (top - pos), x) for pos, x in enumerate(digits))
    return CompositePlan(n=n, digits=tuple(digits), blocks=blocks)


def composite_permutation(n: int) -> Permutation:
    """Block-diagonal permutation of {1..n} from the base-3 digits of n.

    For each digit x_j (largest power first) it lays down x_j consecutive
    blocks of size 3^j, each an offset copy of digit_swap_permutation(j).
    """
    plan = composite_plan(n)
    image: list[int] = []
    offset = 0
    order = len(plan.digits) - 1
    for size, count in plan.blocks:
        if count:
            block = digit_swap_permutation(order).image
            for _ in range(count):
                image.extend(offset + v for v in block)
                offset += size
        order -= 1
    return Permutation(tuple(image))


def permutation_at_rank(n: int, rank: int) -> Permutation:
    """The permutation at a zero-based lexicographic rank, from its Lehmer code."""
    _require_positive(n)
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} outside 0..{n}!-1")
    available = list(range(1, n + 1))
    image = []
    fact = math.factorial(n - 1)
    for remaining in range(n - 1, -1, -1):
        idx, rank = divmod(rank, fact)
        image.append(available.pop(idx))
        if remaining:
            fact //= remaining
    return Permutation(tuple(image))


def iter_permutations(n: int, start: int = 0, stop: int | None = None) -> Iterator[Permutation]:
    """All permutations of {1..n} in lexicographic image order.

    ``start``/``stop`` select a contiguous range of zero-based lex ranks,
    clipped to [0, n!); an empty or negative range yields nothing.
    """
    _require_positive(n)
    total = math.factorial(n)
    start = min(max(0, start), total)
    stop = None if stop is None or stop >= total else max(start, stop)
    for image in itertools.islice(itertools.permutations(range(1, n + 1)), start, stop):
        yield Permutation(image)


def canonical_class(perm: Permutation) -> Permutation:
    """Lexicographically least of {sigma, sigma^-1, r sigma r, r sigma^-1 r}.

    These four share the same trapezoid area (vertical flip and horizontal
    mirror are isometries of the parallelogram family), so search only
    needs one representative per class.
    """
    image = perm.image
    top = len(image) + 1
    inv = [0] * len(image)
    for j, k in enumerate(image, start=1):
        inv[k - 1] = j
    # the mirror r s r maps j to top - s(top - j): the image reversed and flipped
    least = min(
        tuple(inv),
        tuple([top - v for v in reversed(image)]),
        tuple([top - v for v in reversed(inv)]),
    )
    return perm if image <= least else Permutation(least)


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
