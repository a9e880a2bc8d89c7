"""Unit helpers used throughout the library.

All internal computations use a single canonical unit per quantity:

* **time** — seconds (floats).  Helpers convert between nanoseconds,
  microseconds, milliseconds and seconds.
* **data** — memory *words* (integers).  The paper's board uses a 32-bit word
  memory bank; helpers convert between words, bytes, kilobytes and megabytes
  for a given word width.
* **frequency** — hertz.

Keeping conversions in one module avoids the classic "is this in ns or ms?"
bug class that plagues timing models.
"""

from __future__ import annotations

import math
import operator

from .errors import SpecificationError

#: Number of nanoseconds in one second.
NS_PER_S = 1_000_000_000
#: Number of microseconds in one second.
US_PER_S = 1_000_000
#: Number of milliseconds in one second.
MS_PER_S = 1_000


# ---------------------------------------------------------------------------
# Time conversions (canonical unit: seconds)
# ---------------------------------------------------------------------------

def ns(value: float) -> float:
    """Return *value* nanoseconds expressed in seconds."""
    return value / NS_PER_S


def us(value: float) -> float:
    """Return *value* microseconds expressed in seconds."""
    return value / US_PER_S


def ms(value: float) -> float:
    """Return *value* milliseconds expressed in seconds."""
    return value / MS_PER_S


def seconds(value: float) -> float:
    """Identity helper, for symmetry with :func:`ns` / :func:`us` / :func:`ms`."""
    return float(value)


def to_ns(seconds_value: float) -> float:
    """Express a time given in seconds as nanoseconds."""
    return seconds_value * NS_PER_S


def to_us(seconds_value: float) -> float:
    """Express a time given in seconds as microseconds."""
    return seconds_value * US_PER_S


def to_ms(seconds_value: float) -> float:
    """Express a time given in seconds as milliseconds."""
    return seconds_value * MS_PER_S


def format_time(seconds_value: float, precision: int = 3) -> str:
    """Render a time in the most readable unit (ns, us, ms or s).

    >>> format_time(0.0000001)
    '100.0 ns'
    >>> format_time(0.25)
    '250.0 ms'
    """
    if seconds_value < 0:
        return "-" + format_time(-seconds_value, precision)
    if seconds_value == 0:
        return "0 s"
    if seconds_value < 1e-6:
        return f"{round(to_ns(seconds_value), precision)} ns"
    if seconds_value < 1e-3:
        return f"{round(to_us(seconds_value), precision)} us"
    if seconds_value < 1.0:
        return f"{round(to_ms(seconds_value), precision)} ms"
    return f"{round(seconds_value, precision)} s"


# ---------------------------------------------------------------------------
# Frequency / period
# ---------------------------------------------------------------------------

def mhz(value: float) -> float:
    """Return *value* megahertz expressed in hertz."""
    return value * 1_000_000.0


def period_from_frequency(frequency_hz: float) -> float:
    """Clock period in seconds for a clock of *frequency_hz* hertz."""
    if frequency_hz <= 0:
        raise SpecificationError(f"frequency must be positive, got {frequency_hz}")
    return 1.0 / frequency_hz


def frequency_from_period(period_s: float) -> float:
    """Clock frequency in hertz for a clock period of *period_s* seconds."""
    if period_s <= 0:
        raise SpecificationError(f"clock period must be positive, got {period_s}")
    return 1.0 / period_s


# ---------------------------------------------------------------------------
# Data sizes (canonical unit: words)
# ---------------------------------------------------------------------------

#: Number of bits in a byte.
BITS_PER_BYTE = 8
#: Number of bytes in a kilobyte (binary).
BYTES_PER_KB = 1024
#: Number of bytes in a megabyte (binary).
BYTES_PER_MB = 1024 * 1024


def kilowords(value: float) -> int:
    """Return *value* x 1024 words as an integer word count."""
    return int(round(value * 1024))


def words_to_bytes(words: int, word_bits: int = 32) -> int:
    """Number of bytes occupied by *words* words of *word_bits* bits each."""
    if word_bits <= 0 or word_bits % BITS_PER_BYTE:
        raise SpecificationError(
            f"word width must be a positive multiple of 8 bits, got {word_bits}"
        )
    return words * (word_bits // BITS_PER_BYTE)


def bytes_to_words(num_bytes: int, word_bits: int = 32) -> int:
    """Number of whole words needed to hold *num_bytes* bytes."""
    bytes_per_word = words_to_bytes(1, word_bits)
    return math.ceil(num_bytes / bytes_per_word)


def format_words(words: int) -> str:
    """Render a word count using K/M suffixes when exact.

    >>> format_words(65536)
    '64K words'
    >>> format_words(100)
    '100 words'
    """
    if words and words % (1024 * 1024) == 0:
        return f"{words // (1024 * 1024)}M words"
    if words and words % 1024 == 0:
        return f"{words // 1024}K words"
    return f"{words} words"


# ---------------------------------------------------------------------------
# Misc integer helpers shared by the memory mapper and fission analysis
# ---------------------------------------------------------------------------

def as_integer(value, what: str, error: type = SpecificationError) -> int:
    """*value* as a plain ``int``, raising *error* unless it is an integer.

    Resource amounts and word counts are counts: a ``bool`` or a ``float``
    (even an integral one) is rejected, and a numpy integer becomes a plain
    ``int``, so the canonical hashes see exactly the value used.

    >>> as_integer(3, "words")
    3
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def next_power_of_two(value: int) -> int:
    """Smallest power of two greater than or equal to *value* (min 1).

    >>> next_power_of_two(33)
    64
    >>> next_power_of_two(32)
    32
    """
    if value < 0:
        raise SpecificationError(f"value must be non-negative, got {value}")
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def is_power_of_two(value: int) -> bool:
    """Whether *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division, used for ``I_sw = ceil(I / k)``."""
    if denominator <= 0:
        raise SpecificationError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise SpecificationError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)
