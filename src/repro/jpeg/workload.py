"""Image workloads for the case-study tables.

The scanned paper's Tables 1 and 2 list image files in decreasing size order;
the only size stated explicitly in the running text is the largest —
245,760 blocks of 4x4 DCT (about a 1.4-megapixel greyscale image) — plus a row
the text calls "the XV file".  Since the individual file names/sizes are not
legible, we define a synthetic workload ladder that spans the same range
(about one thousand to 245,760 blocks), including the stated largest size, and
document the substitution (see DESIGN.md).  Only the *number of blocks*
enters the timing model; pixel content is irrelevant for Tables 1-2 and is
generated synthetically only for the functional codec examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import SpecificationError
from .taskgraph_builder import DCT_SIZE

#: Number of 4x4 DCT blocks in the largest image of Tables 1-2 (stated in the
#: paper's text).
LARGEST_IMAGE_BLOCKS = 245_760


@dataclass(frozen=True)
class ImageWorkload:
    """One row of the case-study tables: a named image of a given size."""

    name: str
    width: int
    height: int
    block_size: int = DCT_SIZE

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise SpecificationError("image dimensions must be positive")
        if self.block_size <= 0:
            raise SpecificationError("block size must be positive")

    @property
    def pixels(self) -> int:
        """Total pixel count."""
        return self.width * self.height

    @property
    def block_count(self) -> int:
        """Number of DCT blocks the image decomposes into (with padding)."""
        blocks_x = -(-self.width // self.block_size)
        blocks_y = -(-self.height // self.block_size)
        return blocks_x * blocks_y

    def describe(self) -> str:
        """One-line human readable summary."""
        return f"{self.name}: {self.width}x{self.height} ({self.block_count} blocks)"


def workload_from_blocks(name: str, block_count: int, block_size: int = DCT_SIZE) -> ImageWorkload:
    """Build a workload with exactly *block_count* blocks, as square as possible.

    The block count is factored into ``blocks_x * blocks_y`` with the factors
    as close to the square root as the divisors allow (falling back to a
    1 x N strip for prime counts), so the block count — the only quantity that
    enters the timing model — is always exact.
    """
    if block_count < 1:
        raise SpecificationError("block_count must be positive")
    best_divisor = 1
    limit = int(np.sqrt(block_count))
    for candidate in range(limit, 0, -1):
        if block_count % candidate == 0:
            best_divisor = candidate
            break
    blocks_y = best_divisor
    blocks_x = block_count // best_divisor
    return ImageWorkload(
        name=name,
        width=blocks_x * block_size,
        height=blocks_y * block_size,
        block_size=block_size,
    )


def table_workloads() -> List[ImageWorkload]:
    """The workload ladder used for Tables 1 and 2 (decreasing size order).

    The largest row is the paper's stated 245,760-block image; the remaining
    rows halve the size down to about a thousand blocks, covering the regime
    where the IDH improvement shrinks towards zero.  The "xv_file" row mirrors
    the row the paper's text singles out.
    """
    sizes: List[Tuple[str, int]] = [
        ("image_a_1920x2048", 245_760),
        ("xv_file", 122_880),
        ("image_b", 61_440),
        ("image_c", 30_720),
        ("image_d", 15_360),
        ("image_e", 7_680),
        ("image_f", 3_840),
        ("image_g", 1_024),
    ]
    return [workload_from_blocks(name, blocks) for name, blocks in sizes]


def synthetic_image(
    width: int,
    height: int,
    seed: int = 0,
    pattern: str = "gradient+noise",
) -> np.ndarray:
    """Generate a synthetic greyscale image (values 0..255).

    Patterns:

    * ``"gradient+noise"`` — smooth gradients plus low-amplitude noise, a
      reasonable stand-in for natural-image statistics (compresses well);
    * ``"noise"`` — white noise (compresses poorly; worst case for the codec);
    * ``"flat"`` — a constant image (best case).
    """
    if width <= 0 or height <= 0:
        raise SpecificationError("image dimensions must be positive")
    rng = np.random.default_rng(seed)
    if pattern == "flat":
        return np.full((height, width), 128.0)
    if pattern == "noise":
        return rng.uniform(0.0, 255.0, size=(height, width))
    if pattern == "gradient+noise":
        y = np.linspace(0.0, 1.0, height)[:, None]
        x = np.linspace(0.0, 1.0, width)[None, :]
        base = 96.0 * y + 96.0 * x + 32.0 * np.sin(8.0 * np.pi * x) * np.cos(6.0 * np.pi * y)
        noise = rng.normal(0.0, 6.0, size=(height, width))
        return np.clip(base + 32.0 + noise, 0.0, 255.0)
    raise SpecificationError(f"unknown image pattern {pattern!r}")
