"""Weighted tokens and weighted strings.

Section 3.1/3.2 of the paper:

* a **token** is a literal plus a weight.  Leaf tokens have the literal
  ``name[bytes]`` and the repetition count as weight; the structural tokens
  ``[ROOT]``, ``[HANDLE]`` and ``[BLOCK]`` always have weight 1; the
  ``[LEVEL_UP]`` token's weight is the number of levels ascended;
* a **weighted string** is a sequence of consecutive weighted tokens;
* a **substring** is a contiguous run of tokens fully contained in a string;
* the **weight of a string** is the sum of the weights of its tokens.

:class:`WeightedString` also provides a compact textual syntax used by tests,
the CLI and the worked-example benchmark::

    [ROOT]:1 [HANDLE]:1 [BLOCK]:1 write[1024]:3 [LEVEL_UP]:2

``parse`` accepts weights separated by ``:`` or ``*``; a missing weight means 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "ROOT_LITERAL",
    "HANDLE_LITERAL",
    "BLOCK_LITERAL",
    "LEVEL_UP_LITERAL",
    "STRUCTURAL_LITERALS",
    "Token",
    "WeightedString",
    "operation_literal",
]

ROOT_LITERAL = "[ROOT]"
HANDLE_LITERAL = "[HANDLE]"
BLOCK_LITERAL = "[BLOCK]"
LEVEL_UP_LITERAL = "[LEVEL_UP]"

#: Literals that do not correspond to operation leaves.
STRUCTURAL_LITERALS = frozenset({ROOT_LITERAL, HANDLE_LITERAL, BLOCK_LITERAL, LEVEL_UP_LITERAL})


def operation_literal(name: str, nbytes: int) -> str:
    """Build the literal part of an operation token: ``name[bytes]``."""
    return f"{name}[{int(nbytes)}]"


@dataclass(frozen=True)
class Token:
    """A weighted token: a literal part plus a positive integer weight."""

    literal: str
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.literal:
            raise ValueError("Token.literal must be a non-empty string")
        if self.weight < 1:
            raise ValueError(f"Token.weight must be >= 1, got {self.weight}")

    @property
    def is_structural(self) -> bool:
        """Whether this token is one of the imaginary ROOT/HANDLE/BLOCK/LEVEL_UP tokens."""
        return self.literal in STRUCTURAL_LITERALS

    @property
    def is_level_up(self) -> bool:
        """Whether this token marks an ascent in the pre-order traversal."""
        return self.literal == LEVEL_UP_LITERAL

    def with_weight(self, weight: int) -> "Token":
        """Return a copy of this token with a different weight."""
        return Token(self.literal, weight)

    def __str__(self) -> str:
        return f"{self.literal}:{self.weight}"


class WeightedString:
    """An immutable sequence of weighted tokens.

    Supports the sequence protocol (length, indexing, slicing, iteration),
    weight queries with a threshold, and a round-trippable text format.
    """

    __slots__ = ("_tokens", "name", "label", "_fingerprint")

    def __init__(
        self,
        tokens: Iterable[Token],
        name: str = "string",
        label: Optional[str] = None,
    ) -> None:
        self._tokens: Tuple[Token, ...] = tuple(tokens)
        self.name = name
        self.label = label
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[str, int]],
        name: str = "string",
        label: Optional[str] = None,
    ) -> "WeightedString":
        """Build a string from ``(literal, weight)`` pairs."""
        return cls((Token(literal, weight) for literal, weight in pairs), name=name, label=label)

    @classmethod
    def parse(cls, text: str, name: str = "string", label: Optional[str] = None) -> "WeightedString":
        """Parse the compact text form (whitespace-separated ``literal:weight``)."""
        tokens: List[Token] = []
        for chunk in text.split():
            literal = chunk
            weight = 1
            for separator in (":", "*"):
                if separator in chunk:
                    literal, _, weight_text = chunk.rpartition(separator)
                    try:
                        weight = int(weight_text)
                    except ValueError as exc:
                        raise ValueError(f"invalid token weight in {chunk!r}") from exc
                    break
            if not literal:
                raise ValueError(f"invalid token {chunk!r}")
            tokens.append(Token(literal, weight))
        return cls(tokens, name=name, label=label)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    @property
    def tokens(self) -> Tuple[Token, ...]:
        """The tokens of the string as an immutable tuple."""
        return self._tokens

    @property
    def fingerprint(self) -> str:
        """Content digest of the tokens (name and label excluded), computed once.

        The one content key of a string, for every cache and store.
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            for token in self._tokens:
                digest.update(f"{token.literal}\x00{token.weight}\x01".encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self._tokens)

    def __getitem__(self, index: Union[int, slice]) -> Union[Token, "WeightedString"]:
        if isinstance(index, slice):
            return WeightedString(self._tokens[index], name=f"{self.name}[{index.start}:{index.stop}]", label=self.label)
        return self._tokens[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedString):
            return NotImplemented
        return self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(self._tokens)

    # ------------------------------------------------------------------
    # Weight queries
    # ------------------------------------------------------------------
    def weight(self, min_token_weight: int = 1) -> int:
        """Sum of the weights of all tokens whose weight is >= *min_token_weight*.

        ``weight(n)`` is exactly the paper's :math:`weight_{w \\ge n}` function
        used in the normalisation of the worked example.
        """
        return sum(token.weight for token in self._tokens if token.weight >= min_token_weight)

    def total_weight(self) -> int:
        """Sum of all token weights (``weight(1)``)."""
        return self.weight(1)

    def max_token_weight(self) -> int:
        """The largest single token weight (0 for an empty string)."""
        if not self._tokens:
            return 0
        return max(token.weight for token in self._tokens)

    def literals(self) -> List[str]:
        """The literal parts of the tokens, in order."""
        return [token.literal for token in self._tokens]

    def weights(self) -> List[int]:
        """The weights of the tokens, in order."""
        return [token.weight for token in self._tokens]

    # ------------------------------------------------------------------
    # Derived strings
    # ------------------------------------------------------------------
    def substring(self, start: int, length: int) -> "WeightedString":
        """Return the substring of *length* tokens starting at *start*."""
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        if start < 0 or start + length > len(self._tokens):
            raise IndexError(
                f"substring [{start}, {start + length}) out of range for string of {len(self._tokens)} tokens"
            )
        return WeightedString(
            self._tokens[start : start + length],
            name=f"{self.name}[{start}:{start + length}]",
            label=self.label,
        )

    def without_structural_tokens(self) -> "WeightedString":
        """Return a copy keeping only operation tokens (ablation helper)."""
        return WeightedString(
            (token for token in self._tokens if not token.is_structural),
            name=self.name,
            label=self.label,
        )

    def concatenated(self, other: "WeightedString") -> "WeightedString":
        """Return a new string with *other*'s tokens appended."""
        return WeightedString(self._tokens + other._tokens, name=f"{self.name}+{other.name}", label=self.label)

    def with_name(self, name: str) -> "WeightedString":
        """Return a copy with a different name."""
        return WeightedString(self._tokens, name=name, label=self.label)

    def with_label(self, label: Optional[str]) -> "WeightedString":
        """Return a copy with a different label."""
        return WeightedString(self._tokens, name=self.name, label=label)

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Render the string in the compact ``literal:weight`` format."""
        return " ".join(str(token) for token in self._tokens)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"WeightedString(name={self.name!r}, tokens={len(self._tokens)}, weight={self.total_weight()})"
