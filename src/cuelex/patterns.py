"""Cue patterns and what they match.

``match``/``count_matches`` are the reference semantics: plain scans over one
sentence's folded tokens.  The corpus analytics answer the same questions
from ``corpus.MatchIndex``, and the tests hold the index to these scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

# Five consensus-failure words used as the default S+/S- indicator query.
DEFAULT_CONSENSUS_QUERY = (
    "conflicting",
    "contradictory",
    "inconsistent",
    "discrepant",
    "irreconcilable",
)


@dataclass(frozen=True)
class MatchPattern:
    """A cue pattern: literal token, prefix wildcard ("surpris*"), or phrase."""

    surface: str
    kind: str  # literal | prefix_wildcard | phrase

    def __post_init__(self):
        if self.kind not in ("literal", "prefix_wildcard", "phrase"):
            raise InputError(f"unknown pattern kind {self.kind!r}")

    @property
    def stem(self) -> str:
        return self.surface.lower().rstrip("*")

    @property
    def phrase_tokens(self) -> tuple[str, ...]:
        return tuple(self.surface.lower().split())


def parse_pattern(text: str) -> MatchPattern:
    text = text.strip()
    if not text:
        raise InputError("empty pattern")
    if text.endswith("*"):
        if len(text) == 1:
            raise InputError("wildcard pattern needs a stem")
        return MatchPattern(text, "prefix_wildcard")
    if " " in text:
        return MatchPattern(text, "phrase")
    return MatchPattern(text, "literal")


def as_pattern(p) -> MatchPattern:
    return p if isinstance(p, MatchPattern) else parse_pattern(str(p))


def match(pattern, sentence) -> bool:
    """Does the sentence (Sentence, CollectionItem or token sequence) match the pattern?"""
    return count_matches(pattern, sentence) > 0


def count_matches(pattern, sentence) -> int:
    """Number of pattern occurrences in the sentence (token-level count).

    A ``Sentence`` or ``CollectionItem`` is read by its ``folded`` tokens; a
    plain token sequence is folded here.
    """
    pattern = as_pattern(pattern)
    tokens = sentence.folded if hasattr(sentence, "folded") else tuple(t.lower() for t in sentence)
    if pattern.kind == "literal":
        return tokens.count(pattern.surface.lower())
    if pattern.kind == "prefix_wildcard":
        return sum(t.startswith(pattern.stem) for t in tokens)
    phrase = pattern.phrase_tokens
    span = len(phrase)
    return sum(tokens[i : i + span] == phrase for i in range(len(tokens) - span + 1))
