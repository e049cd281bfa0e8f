"""Corpus-level token interning: literals → small integer ids → NumPy arrays.

The Kast kernel's candidate search compares token literals pairwise.  Doing
that on Python strings costs a hash + equality check per comparison; doing it
on small integers lets NumPy evaluate the whole equality matrix in one
vectorised sweep.  :class:`TokenInterner` provides the bridge:

* it owns a :class:`~repro.strings.vocabulary.Vocabulary` that assigns each
  distinct literal a dense integer id (corpus-level: every string encoded
  through the same interner shares the id space, so two strings' arrays are
  directly comparable);
* :meth:`encode` turns a sequence of literals into an ``int32`` NumPy array;
* encoding is thread-safe, so one interner can be shared by the
  threads of concurrent service jobs and across the cut-weight
  sweep (the encoding does not depend on the cut weight).
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.strings.tokens import WeightedString
from repro.strings.vocabulary import Vocabulary

__all__ = ["TokenInterner"]


class TokenInterner:
    """Thread-safe literal → integer-id encoder shared across a corpus.

    Parameters
    ----------
    vocabulary:
        Optional existing vocabulary to extend; a fresh one is created by
        default.  The interner only ever *adds* literals, so ids remain
        stable for the lifetime of the interner.
    """

    def __init__(self, vocabulary: Optional[Vocabulary] = None) -> None:
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.vocabulary)

    def id_of(self, literal: str) -> int:
        """Id of *literal*, interning it first if unknown."""
        with self._lock:
            return self.vocabulary.intern(literal)

    def encode(self, literals: Sequence[str]) -> np.ndarray:
        """Encode a sequence of literals as a dense ``int32`` array.

        Unknown literals are interned on the fly, so any pattern drawn from a
        previously encoded string round-trips without a separate registration
        step.
        """
        with self._lock:
            ids = self.vocabulary.intern_all(literals)
        return np.asarray(ids, dtype=np.int32)

    def encode_string(self, string: WeightedString) -> np.ndarray:
        """Encode the literals of *string* (see :meth:`encode`)."""
        return self.encode([token.literal for token in string])

    def encode_corpus(self, strings: Iterable[WeightedString]) -> list:
        """Encode every string of a corpus, returning the list of arrays."""
        return [self.encode_string(string) for string in strings]
