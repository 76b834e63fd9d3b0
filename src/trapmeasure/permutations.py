"""Permutations indexing parallelogram trapezoids.

Images are 1-based throughout (image[j-1] = sigma(j) for j in 1..n), which
matches the bottom/top interval indexing of the geometry.  Besides the
named families (identity, reversal, the base-3 digit-swap permutation and
its block-composite extension to arbitrary n), the module provides
lexicographic enumeration with rank splitting for parallel search.
"""

from __future__ import annotations

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
    digit d to 2d mod 3 (0 stays, 1 and 2 swap).
    """
    if m < 0:
        raise ValueError(f"negative order {m}")
    if m > MAX_DIGIT_SWAP_ORDER:
        raise ValueError(f"order {m} exceeds cap {MAX_DIGIT_SWAP_ORDER} (3^m blows up)")
    n = 3**m
    image = []
    for x in range(n):
        y = 0
        z = x
        weight = 1
        for _ in range(m):
            z, d = divmod(z, 3)
            y += ((2 * d) % 3) * weight
            weight *= 3
        image.append(y + 1)
    return Permutation(tuple(image))


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


def rank_of(perm: Permutation) -> int:
    """Zero-based lexicographic rank via the Lehmer code."""
    image = perm.image
    n = len(image)
    seen = [False] * (n + 1)
    rank = 0
    fact = math.factorial(n - 1) if n else 1
    for pos, v in enumerate(image):
        smaller = sum(1 for u in range(1, v) if not seen[u])
        rank += smaller * fact
        seen[v] = True
        if pos < n - 1:
            fact //= n - 1 - pos
    return rank


def permutation_at_rank(n: int, rank: int) -> Permutation:
    """Inverse of rank_of: the permutation at a zero-based lex rank."""
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


def _advance(image: list[int]) -> bool:
    """In-place step to the lexicographic successor; False at the last one."""
    n = len(image)
    i = n - 2
    while i >= 0 and image[i] >= image[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = n - 1
    while image[j] <= image[i]:
        j -= 1
    image[i], image[j] = image[j], image[i]
    image[i + 1 :] = reversed(image[i + 1 :])
    return True


def iter_permutations(n: int, start: int = 0, stop: int | None = None) -> Iterator[Permutation]:
    """All permutations of {1..n} in lexicographic image order.

    ``start``/``stop`` select a contiguous range of zero-based lex ranks,
    which is how exhaustive search splits work between workers.
    """
    _require_positive(n)
    total = math.factorial(n)
    if stop is None:
        stop = total
    start = max(0, start)
    stop = min(stop, total)
    if start >= stop:
        return
    image = list(permutation_at_rank(n, start).image)
    for _ in range(stop - start):
        yield Permutation(tuple(image))
        if not _advance(image):
            break


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
