"""Tokenization and corpus assembly.

A byte-level BPE vocabulary is fitted from scratch: ids 0..255 are the
raw bytes, merges take the next ids in the order they were learned, and
the final id is reserved for the separator that splits prompt from story
(and doubles as the end-of-story target).  Because every merge bottoms
out in bytes, decode(encode(s)) == s for any text.

Encoding and fitting work on a ``str`` of one character per token id
(the UTF-8 bytes read as latin-1), where merge k is one ``str.replace``
of its pair's two characters by ``chr(256 + k)``: leftmost,
non-overlapping matches, as in the classic list scan, but in C.  A
corpus is encoded as one such string, its texts joined by the
separator's character, which no byte or merge produces and no merge
pair holds, so no match spans two texts.

Fitting counts the corpus's pairs once, keyed by their two-character
strings, and then updates only the counts around each merge's hits, in
the texts that hold the merged pair.  A lazy max-heap picks each merge;
on equal counts it yields the smallest (left_id, right_id), as a full
recount per merge would.

Corpus files are JSON Lines with string fields "prompt" and "story"
plus an optional "label" used only by the latent export.
"""

from __future__ import annotations

import heapq
import io
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import add
from pathlib import Path

import numpy as np

N_BYTE_TOKENS = 256
MIN_VOCAB_SIZE = N_BYTE_TOKENS + 1  # bytes plus the separator
# Merge k is the character chr(256 + k), and the separator's character follows the last merge's; chr stops at 0x10FFFF.
MAX_MERGES = 0x10FFFF - N_BYTE_TOKENS


class CorpusError(ValueError):
    """A corpus file or record violates the expected structure."""


class Vocabulary:
    """Byte-level BPE vocabulary with a reserved separator token.

    ``merges`` is the learned list of (left_id, right_id) pairs; merge k
    defines token id 256+k.  The separator takes the last id and is never
    produced by ``encode``, since no byte or merge maps to it.
    """

    def __init__(self, merges: list[tuple[int, int]]):
        if len(merges) > MAX_MERGES:
            raise CorpusError(f"{len(merges)} merges exceed the maximum of {MAX_MERGES}")
        self.merges = [(int(a), int(b)) for a, b in merges]
        self.separator_id = N_BYTE_TOKENS + len(self.merges)
        self.size = self.separator_id + 1
        self._bytes_of: list[bytes] = [bytes([i]) for i in range(N_BYTE_TOKENS)]
        for a, b in self.merges:
            if not (0 <= a < len(self._bytes_of) and 0 <= b < len(self._bytes_of)):
                raise CorpusError(f"merge ({a}, {b}) references an undefined token")
            self._bytes_of.append(self._bytes_of[a] + self._bytes_of[b])
        self._replacements = [(chr(a) + chr(b), chr(N_BYTE_TOKENS + k)) for k, (a, b) in enumerate(self.merges)]

    def encode(self, text: str) -> list[int]:
        return self.encode_texts([text])[0]

    def encode_texts(self, texts) -> list[list[int]]:
        """Each text's ids, all texts encoded as one string joined by the separator's character.

        Each merge is then one ``str.replace`` over the whole string.
        """
        strings = [text.encode("utf-8").decode("latin-1") for text in texts]
        joiner = chr(self.separator_id)
        return [list(map(ord, part)) for part in self._merged(joiner.join(strings)).split(joiner)] if strings else []

    def _merged(self, s: str) -> str:
        for pair, merged in self._replacements:
            if len(s) < 2:
                break
            s = s.replace(pair, merged)
        return s

    def decode(self, ids) -> str:
        """Inverse of encode on encoded text; free-running generations may
        produce byte sequences that are not UTF-8, which decode to U+FFFD."""
        chunks = []
        for i in ids:
            i = int(i)
            if not 0 <= i < self.size:
                raise CorpusError(f"token id {i} out of range for vocabulary of size {self.size}")
            if i == self.separator_id:
                raise CorpusError("the separator id has no text form")
            chunks.append(self._bytes_of[i])
        return b"".join(chunks).decode("utf-8", errors="replace")

    def save(self, path) -> None:
        lines = [str(self.size)]
        lines += [f"{a} {b}" for a, b in self.merges]
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read what ``save`` writes; any malformed file raises ``CorpusError``."""
        try:
            lines = Path(path).read_text(encoding="ascii").splitlines()
        except UnicodeDecodeError as e:
            raise CorpusError(f"{path}: vocabulary file is not ASCII ({e.reason} at byte {e.start})") from e
        if not lines:
            raise CorpusError(f"empty vocabulary file: {path}")

        def ints(lineno: int, count: int, what: str) -> list[int]:
            line = lines[lineno - 1]
            try:
                values = [int(x) for x in line.split()]
            except ValueError:
                values = []
            if len(values) != count:
                raise CorpusError(f"{path}:{lineno}: expected {what}, got {line!r}")
            return values

        (declared,) = ints(1, 1, "the token count")
        merges = [ints(n, 2, "two token ids") for n in range(2, len(lines) + 1) if lines[n - 1].strip()]
        vocab = cls(merges)
        if vocab.size != declared:
            raise CorpusError(f"vocabulary header says {declared} tokens but merges imply {vocab.size}")
        return vocab


def fit_vocabulary(texts, target_size: int) -> Vocabulary:
    """Learn a byte-level BPE vocabulary of at most ``target_size`` tokens.

    Greedily merges the most frequent adjacent pair; frequency ties break
    on the smaller (left_id, right_id) tuple.  Fitting stops early once no
    pair occurs twice, so the result can be smaller than requested.  Pure
    function of the corpus bytes and the target size.

    The pairs of the whole corpus are counted once, each as its
    two-character string.  A merge then changes only the counts around
    its hits: each text that holds the pair is split at the hits that
    ``str.replace`` takes, and at every hit the pair itself and its
    neighbour pairs (left + a, b + right, or b + a between two adjacent
    hits) are taken out and their merged forms put in.  The pair to
    merge comes off a lazy max-heap of ``(-count, pair)`` entries,
    skipping those whose count is stale; two-character strings compare
    by code point, so on equal counts the smallest (left_id, right_id)
    comes first.
    """
    if target_size < MIN_VOCAB_SIZE:
        raise CorpusError(f"target size {target_size} is below the minimum {MIN_VOCAB_SIZE}")
    if target_size > MIN_VOCAB_SIZE + MAX_MERGES:
        raise CorpusError(f"target size {target_size} is above the maximum {MIN_VOCAB_SIZE + MAX_MERGES}")
    strings = [t.encode("utf-8").decode("latin-1") for t in texts]
    if not strings:
        raise CorpusError("cannot fit a vocabulary on an empty corpus")

    counts = Counter(chain.from_iterable(map(add, s, s[1:]) for s in strings))  # pairs as 2-char strings
    heap = [(-c, p) for p, c in counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []
    for rank in range(target_size - MIN_VOCAB_SIZE):
        while heap and counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        _, pair = heapq.heappop(heap)
        (a, b), merged = pair, chr(N_BYTE_TOKENS + rank)
        lost, gained = [], []
        for i, s in enumerate(strings):
            if pair not in s:
                continue
            # split takes the hits that replace would: leftmost, non-overlapping.
            segments = s.split(pair)
            hits = len(segments) - 1
            lost += [pair] * hits
            for k, g in enumerate(segments):
                if g:
                    if k:
                        lost.append(b + g[0])
                        gained.append(merged + g[0])
                    if k < hits:
                        lost.append(g[-1] + a)
                        gained.append(g[-1] + merged)
                elif 0 < k < hits:  # two adjacent hits
                    lost.append(b + a)
                    gained.append(merged + merged)
            strings[i] = merged.join(segments)
        change = Counter(gained)
        change.subtract(lost)
        for p, d in change.items():
            if d:
                if c := counts[p] + d:
                    counts[p] = c
                    heapq.heappush(heap, (-c, p))
                else:
                    del counts[p]
        merges.append((ord(a), ord(b)))
    return Vocabulary(merges)


def word_tokens(text: str) -> list[str]:
    """Word-level tokens for word-granularity perplexity: whitespace split."""
    return text.split()


@dataclass
class PromptStoryPair:
    """One corpus record; ``encode_pair`` returns a copy with the token fields filled."""

    prompt_text: str
    story_text: str
    label: str = ""
    prompt_tokens: list[int] | None = None
    story_tokens: list[int] | None = None


@dataclass
class EncodedExample:
    """Model-ready views of one pair.

    ``decoder_input`` is prompt ++ [SEP] ++ story, which is also what the
    posterior encodes; position i predicts the next token, and the final
    position predicts a terminal separator.
    ``loss_mask`` is True exactly where the prediction target is a story
    token or that terminal separator, so it sums to len(story) + 1.
    """

    prior_input: np.ndarray
    decoder_input: np.ndarray
    targets: np.ndarray
    loss_mask: np.ndarray
    pair: PromptStoryPair = field(repr=False, default=None)


def load_corpus(path) -> list[PromptStoryPair]:
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        raise CorpusError(f"{path}:{lineno}: not UTF-8 ({e.reason})") from e
    pairs = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as e:
            raise CorpusError(f"{path}:{lineno}: invalid JSON ({e})") from e
        if not (isinstance(record, dict) and "prompt" in record and "story" in record
                and all(isinstance(record.get(k, ""), str) for k in ("prompt", "story", "label"))):
            raise CorpusError(
                f"{path}:{lineno}: record needs string fields 'prompt' and 'story' ('label' too, if given)"
            )
        for key in ("prompt", "story", "label"):
            try:  # a JSON escape can spell a lone surrogate, which no UTF-8 text holds
                record.get(key, "").encode("utf-8")
            except UnicodeEncodeError as e:
                raise CorpusError(f"{path}:{lineno}: field '{key}' is not valid Unicode text ({e.reason})") from e
        pairs.append(PromptStoryPair(record["prompt"], record["story"], label=record.get("label", "")))
    if not pairs:
        raise CorpusError(f"corpus file has no records: {path}")
    return pairs


def encode_pair(pair: PromptStoryPair, vocab: Vocabulary, max_len: int) -> PromptStoryPair:
    """A copy of the pair with its tokens, keeping the prompt whole and truncating the story tail.

    Pairs whose prompt alone exceeds max_len / 2 are rejected, since the
    prompt is the conditioning signal and must survive intact.
    """
    return _with_tokens(pair, vocab.encode(pair.prompt_text), vocab.encode(pair.story_text), max_len)


def _with_tokens(pair: PromptStoryPair, x: list[int], y: list[int], max_len: int) -> PromptStoryPair:
    """``encode_pair``'s copy, given the prompt's ids ``x`` and the story's ``y``."""
    if not x or not y:
        raise CorpusError("prompt and story must both be nonempty after encoding")
    if len(x) > max_len // 2:
        raise CorpusError(f"prompt of {len(x)} tokens exceeds half the sequence budget ({max_len // 2})")
    return replace(pair, prompt_tokens=x, story_tokens=y[:max_len - len(x) - 1])


def build_example(pair: PromptStoryPair, vocab: Vocabulary, max_len: int) -> EncodedExample:
    if pair.prompt_tokens is None or pair.story_tokens is None:
        pair = encode_pair(pair, vocab, max_len)
    x, y = pair.prompt_tokens, pair.story_tokens
    sep = vocab.separator_id
    decoder_input = np.array(x + [sep] + y, dtype=np.int64)
    targets = np.array(x[1:] + [sep] + y + [sep], dtype=np.int64)
    loss_mask = np.zeros(len(decoder_input), dtype=bool)
    loss_mask[len(x):] = True
    return EncodedExample(
        prior_input=np.array(x, dtype=np.int64),
        decoder_input=decoder_input,
        targets=targets,
        loss_mask=loss_mask,
        pair=pair,
    )


def prepare_corpus(pairs: list[PromptStoryPair], vocab: Vocabulary, max_len: int) -> list[EncodedExample]:
    """Every pair's example, as ``build_example`` makes it.

    The texts of the pairs without tokens are encoded in one
    ``Vocabulary.encode_texts`` pass.
    """
    bare = [i for i, p in enumerate(pairs) if p.prompt_tokens is None or p.story_tokens is None]
    ids = vocab.encode_texts([text for i in bare for text in (pairs[i].prompt_text, pairs[i].story_text)])
    pairs = list(pairs)
    for k, i in enumerate(bare):
        pairs[i] = _with_tokens(pairs[i], ids[2 * k], ids[2 * k + 1], max_len)
    return [build_example(p, vocab, max_len) for p in pairs]


def toy_corpus_path() -> Path:
    """Path of the bundled 32-pair toy corpus (4 prompt types, 8 stories each)."""
    return Path(__file__).parent / "data" / "toy_corpus.jsonl"
