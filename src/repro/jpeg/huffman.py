"""Huffman entropy coding (the last software stage of the co-design).

A self-contained canonical Huffman coder: build a code from symbol
frequencies, encode a symbol stream to a bit string, and decode it back.  The
codec uses it to entropy-code the (run, value) pairs produced by the zig-zag /
run-length stage; the tests exercise it directly on arbitrary symbol streams
(round-trip and prefix-freedom properties).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from ..errors import CodecError


@dataclass(order=True)
class _HeapNode:
    weight: int
    tiebreak: int
    symbols: Tuple = field(compare=False)
    left: "._HeapNode" = field(compare=False, default=None)
    right: "._HeapNode" = field(compare=False, default=None)


class HuffmanCode:
    """A prefix code over an arbitrary (hashable) symbol alphabet."""

    def __init__(self, lengths: Dict[Hashable, int]) -> None:
        if not lengths:
            raise CodecError("a Huffman code needs at least one symbol")
        self._lengths = dict(lengths)
        self._codes = self._canonicalise(self._lengths)
        self._decode_table = {code: symbol for symbol, code in self._codes.items()}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_frequencies(cls, frequencies: Dict[Hashable, int]) -> "HuffmanCode":
        """Build an optimal prefix code from symbol frequencies."""
        if not frequencies:
            raise CodecError("cannot build a Huffman code from no symbols")
        for symbol, count in frequencies.items():
            if count < 0:
                raise CodecError(f"negative frequency for symbol {symbol!r}")
        filtered = {s: max(1, int(c)) for s, c in frequencies.items()}
        if len(filtered) == 1:
            only = next(iter(filtered))
            return cls({only: 1})
        heap: List[_HeapNode] = []
        for tiebreak, (symbol, weight) in enumerate(sorted(filtered.items(), key=lambda kv: repr(kv[0]))):
            heapq.heappush(heap, _HeapNode(weight, tiebreak, (symbol,)))
        counter = len(heap)
        while len(heap) > 1:
            first = heapq.heappop(heap)
            second = heapq.heappop(heap)
            counter += 1
            heapq.heappush(
                heap,
                _HeapNode(
                    first.weight + second.weight,
                    counter,
                    first.symbols + second.symbols,
                    left=first,
                    right=second,
                ),
            )
        root = heap[0]
        lengths: Dict[Hashable, int] = {}

        def walk(node: _HeapNode, depth: int) -> None:
            if node.left is None and node.right is None:
                lengths[node.symbols[0]] = max(1, depth)
                return
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        walk(root, 0)
        return cls(lengths)

    @classmethod
    def from_symbols(cls, symbols: Iterable[Hashable]) -> "HuffmanCode":
        """Build a code from a stream of symbols (frequencies counted here)."""
        frequencies: Dict[Hashable, int] = {}
        for symbol in symbols:
            frequencies[symbol] = frequencies.get(symbol, 0) + 1
        return cls.from_frequencies(frequencies)

    @staticmethod
    def _canonicalise(lengths: Dict[Hashable, int]) -> Dict[Hashable, str]:
        """Assign canonical codes from code lengths (sorted by length, symbol)."""
        ordered = sorted(lengths.items(), key=lambda kv: (kv[1], repr(kv[0])))
        codes: Dict[Hashable, str] = {}
        code = 0
        previous_length = ordered[0][1]
        for index, (symbol, length) in enumerate(ordered):
            if index:
                code = (code + 1) << (length - previous_length)
            codes[symbol] = format(code, f"0{length}b")
            previous_length = length
        return codes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def symbols(self) -> List[Hashable]:
        """All symbols the code covers."""
        return list(self._codes)

    def code_of(self, symbol: Hashable) -> str:
        """The bit string assigned to *symbol*."""
        try:
            return self._codes[symbol]
        except KeyError:
            raise CodecError(f"symbol {symbol!r} is not in the Huffman code")

    def length_of(self, symbol: Hashable) -> int:
        """Code length in bits of *symbol*."""
        return len(self.code_of(symbol))

    def expected_length(self, frequencies: Dict[Hashable, int]) -> float:
        """Average code length in bits under the given frequencies."""
        total = sum(frequencies.values())
        if total == 0:
            return 0.0
        return sum(
            frequencies[s] * self.length_of(s) for s in frequencies if frequencies[s]
        ) / total

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------

    def encode(self, symbols: Sequence[Hashable]) -> str:
        """Encode a symbol sequence into a bit string ('0'/'1' characters)."""
        return "".join(self.code_of(symbol) for symbol in symbols)

    def decode(self, bits: str) -> List[Hashable]:
        """Decode a bit string produced by :meth:`encode`."""
        symbols: List[Hashable] = []
        current = ""
        for bit in bits:
            if bit not in "01":
                raise CodecError(f"invalid bit {bit!r} in Huffman stream")
            current += bit
            symbol = self._decode_table.get(current)
            if symbol is not None:
                symbols.append(symbol)
                current = ""
        if current:
            raise CodecError("Huffman stream ended in the middle of a code word")
        return symbols

    def is_prefix_free(self) -> bool:
        """Whether no code word is a prefix of another (always true by construction)."""
        codes = sorted(self._codes.values())
        for first, second in zip(codes, codes[1:]):
            if second.startswith(first):
                return False
        return True
