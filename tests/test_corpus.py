import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from storyvae import corpus as cp
from storyvae.selfcheck import bpe_fit_oracle, bpe_scan_oracle


def toy_texts():
    """The toy corpus's texts as the ``vocab`` command fits on them: every prompt, then every story."""
    pairs = cp.load_corpus(cp.toy_corpus_path())
    return [p.prompt_text for p in pairs] + [p.story_text for p in pairs]


def random_texts(rng, n):
    out = []
    for _ in range(n):
        length = int(rng.integers(0, 40))
        out.append("".join(chr(int(c)) for c in rng.integers(32, 0x2FFF, size=length)))
    return out


class TestFitVocabulary:
    def test_minimum_size_is_bytes_plus_separator(self):
        vocab = cp.fit_vocabulary(["anything at all"], 257)
        assert vocab.size == 257
        assert vocab.merges == []
        assert vocab.separator_id == 256

    def test_single_merge_on_aaaa(self):
        vocab = cp.fit_vocabulary(["aaaa"], 258)
        assert vocab.merges == [(ord("a"), ord("a"))]
        assert vocab.size == 258
        # frequency oracle: (a, a) is the only adjacent pair
        counts = Counter(zip(b"aaaa", b"aaaa"[1:]))
        assert counts[(97, 97)] == 3

    def test_most_frequent_pair_merges_first(self):
        corpus = ["ababab", "cd"]
        vocab = cp.fit_vocabulary(corpus, 258)
        counts = Counter()
        for text in corpus:
            data = text.encode()
            counts.update(zip(data, data[1:]))
        best = max(counts.values())
        expected = min(p for p, c in counts.items() if c == best)
        assert vocab.merges[0] == expected

    def test_deterministic_across_runs(self):
        texts = ["the cat sat on the mat", "the bat and the rat", "mats and cats"]
        a = cp.fit_vocabulary(texts, 300)
        b = cp.fit_vocabulary(texts, 300)
        assert a.merges == b.merges

    def test_stops_early_when_nothing_repeats(self):
        vocab = cp.fit_vocabulary(["abcdefg"], 400)
        assert vocab.size == 257  # no adjacent pair occurs twice

    def test_too_small_target_rejected(self):
        with pytest.raises(cp.CorpusError):
            cp.fit_vocabulary(["abc"], 256)

    def test_empty_corpus_rejected(self):
        with pytest.raises(cp.CorpusError):
            cp.fit_vocabulary([], 300)

    def test_target_past_the_last_code_point_rejected(self):
        # Merge k is the character chr(256 + k), so MAX_MERGES merges is the largest vocabulary.
        largest = cp.MIN_VOCAB_SIZE + cp.MAX_MERGES
        assert cp.fit_vocabulary(["abab"], largest).merges == [(ord("a"), ord("b"))]
        with pytest.raises(cp.CorpusError, match="above the maximum"):
            cp.fit_vocabulary(["abab"], largest + 1)

    @pytest.mark.parametrize("target", [258, 300, 512, 2000])
    def test_merges_match_the_list_scan_fit_on_the_toy_corpus(self, target):
        assert cp.fit_vocabulary(toy_texts(), target).merges == bpe_fit_oracle(toy_texts(), target)


def test_toy_corpus_ids_and_vocab_file_are_pinned(tmp_path):
    """Digests of the toy corpus's ids and vocab.txt at target 512: a tokenizer change that moves one id fails here."""
    pairs = cp.load_corpus(cp.toy_corpus_path())
    vocab = cp.fit_vocabulary(toy_texts(), 512)
    vocab.save(tmp_path / "vocab.txt")
    ids = json.dumps([ex.decoder_input.tolist() for ex in cp.prepare_corpus(pairs, vocab, 256)])
    assert vocab.size == 441
    assert (hashlib.sha256((tmp_path / "vocab.txt").read_bytes()).hexdigest()
            == "6fa34b02cf66c601c77c462be947e7e51e3672b47bcbc8e02e6b039345473025")
    assert (hashlib.sha256(ids.encode()).hexdigest()
            == "ecd1a394acdbb62ed7372b973c646412367d5386dd633ffa2269783f853cb80b")


class TestEncodeDecode:
    def test_empty_string(self):
        vocab = cp.fit_vocabulary(["abc abc"], 260)
        assert vocab.encode("") == []
        assert vocab.decode([]) == ""

    def test_byte_vocab_encodes_raw_bytes(self):
        vocab = cp.fit_vocabulary(["zzzz"], 257)
        assert vocab.encode("ab") == [0x61, 0x62]

    def test_roundtrip_random_unicode(self):
        rng = np.random.default_rng(0)
        vocab = cp.fit_vocabulary(["common words repeat common words repeat"], 300)
        for text in random_texts(rng, 1000):
            assert vocab.decode(vocab.encode(text)) == text

    def test_separator_never_emitted(self):
        vocab = cp.fit_vocabulary(["sep sep sep"], 280)
        rng = np.random.default_rng(1)
        for text in random_texts(rng, 200) + ["sep", "<|endoftext|>"]:
            assert vocab.separator_id not in vocab.encode(text)

    def test_encode_texts_gives_each_text_its_own_ids(self):
        """Texts encoded as one joined string get the ids each gets alone, the empty text and no text included."""
        vocab = cp.fit_vocabulary(toy_texts(), 300)
        texts = toy_texts()[:6] + ["", "ab"]
        assert vocab.encode_texts(texts) == [vocab.encode(text) for text in texts] and vocab.encode_texts([]) == []

    def test_decode_out_of_range_rejected(self):
        vocab = cp.fit_vocabulary(["abc"], 257)
        with pytest.raises(cp.CorpusError):
            vocab.decode([vocab.size])
        with pytest.raises(cp.CorpusError):
            vocab.decode([vocab.separator_id])

    def test_fitted_corpus_is_fixed_point(self):
        texts = ["round and round it goes", "around the roundabout"]
        vocab = cp.fit_vocabulary(texts, 290)
        for t in texts:
            assert vocab.decode(vocab.encode(t)) == t


class TestVocabularyFile:
    def test_save_load_roundtrip(self, tmp_path):
        vocab = cp.fit_vocabulary(["the rain in spain stays mainly in the plain"], 300)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = cp.Vocabulary.load(path)
        assert loaded.merges == vocab.merges
        assert loaded.size == vocab.size
        assert loaded.encode("rain in spain") == vocab.encode("rain in spain")

    def test_file_bytes_reproducible(self, tmp_path):
        texts = ["mississippi", "missing pieces"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        cp.fit_vocabulary(texts, 280).save(a)
        cp.fit_vocabulary(texts, 280).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_merges_past_the_last_code_point_rejected(self):
        # Merge k is the character chr(256 + k); the largest vocabulary's separator is the last code point.
        assert chr(cp.N_BYTE_TOKENS + cp.MAX_MERGES) == "\U0010ffff"
        assert cp.Vocabulary([(0, 0)] * cp.MAX_MERGES).separator_id == 0x10FFFF
        with pytest.raises(cp.CorpusError, match="exceed"):
            cp.Vocabulary([(0, 0)] * (cp.MAX_MERGES + 1))

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for content in (b"400\n97 98\n", b"abc\n", b"258\n1\n", b"258\n-1 -2\n", b"257\n\xff\n"):
            path.write_bytes(content)
            with pytest.raises(cp.CorpusError):
                cp.Vocabulary.load(path)


class TestBuildExample:
    @pytest.fixture
    def vocab(self):
        return cp.fit_vocabulary(["ab ab ab", "cd cd"], 257)

    def test_worked_layout(self):
        vocab = cp.fit_vocabulary(["x"], 257)
        pair = cp.PromptStoryPair("p", "s")
        pair.prompt_tokens = [5]
        pair.story_tokens = [7]
        ex = cp.build_example(pair, vocab, max_len=16)
        assert list(ex.decoder_input) == [5, 256, 7]
        assert list(ex.targets) == [256, 7, 256]
        assert list(ex.loss_mask) == [False, True, True]

    def test_prior_input_has_no_separator_or_story(self, vocab):
        pair = cp.PromptStoryPair("ab ab", "cd")
        ex = cp.build_example(pair, vocab, max_len=32)
        assert vocab.separator_id not in ex.prior_input
        assert list(ex.prior_input) == ex.pair.prompt_tokens

    def test_mask_counts_story_plus_terminal(self, vocab):
        rng = np.random.default_rng(2)
        for _ in range(25):
            prompt = "".join(rng.choice(list("abcd"), size=rng.integers(1, 6)))
            story = "".join(rng.choice(list("abcd"), size=rng.integers(1, 10)))
            ex = cp.build_example(cp.PromptStoryPair(prompt, story), vocab, max_len=64)
            assert ex.loss_mask.sum() == len(ex.pair.story_tokens) + 1

    def test_posterior_is_prior_plus_sep_plus_story(self, vocab):
        ex = cp.build_example(cp.PromptStoryPair("ab", "cd cd"), vocab, max_len=32)
        rebuilt = list(ex.prior_input) + [vocab.separator_id] + list(ex.pair.story_tokens)
        assert list(ex.decoder_input) == rebuilt

    def test_story_tail_truncated_to_fit(self, vocab):
        pair = cp.PromptStoryPair("ab", "c" * 100)
        ex = cp.build_example(pair, vocab, max_len=16)
        assert len(ex.decoder_input) == 16
        assert list(ex.prior_input) == ex.pair.prompt_tokens  # prompt kept whole

    def test_prepared_pairs_keep_no_tokens(self):
        """Pairs prepared under one vocabulary prepare under another as fresh pairs do."""
        texts = [p.prompt_text + " " + p.story_text for p in cp.load_corpus(cp.toy_corpus_path())]
        wide, narrow = cp.fit_vocabulary(texts, 512), cp.fit_vocabulary(texts, 300)
        pairs = cp.load_corpus(cp.toy_corpus_path())
        cp.prepare_corpus(pairs, wide, 64)
        assert all(p.prompt_tokens is None and p.story_tokens is None for p in pairs)
        again = cp.prepare_corpus(pairs, narrow, 20)
        fresh = cp.prepare_corpus(cp.load_corpus(cp.toy_corpus_path()), narrow, 20)
        for a, b in zip(again, fresh, strict=True):
            assert a.pair == b.pair
            assert all(np.array_equal(x, y) for x, y in
                       [(a.prior_input, b.prior_input), (a.decoder_input, b.decoder_input),
                        (a.targets, b.targets), (a.loss_mask, b.loss_mask)])

    def test_oversized_prompt_rejected(self, vocab):
        with pytest.raises(cp.CorpusError, match="prompt"):
            cp.build_example(cp.PromptStoryPair("a" * 20, "b"), vocab, max_len=16)

    def test_empty_sides_rejected(self, vocab):
        with pytest.raises(cp.CorpusError):
            cp.build_example(cp.PromptStoryPair("", "story"), vocab, max_len=16)
        with pytest.raises(cp.CorpusError):
            cp.build_example(cp.PromptStoryPair("prompt", ""), vocab, max_len=16)


class TestCorpusFile:
    def test_load_jsonl(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"prompt": "p1", "story": "s1"}) + "\n"
            + json.dumps({"prompt": "p2", "story": "s2", "label": "x"}) + "\n"
        )
        pairs = cp.load_corpus(path)
        assert [p.prompt_text for p in pairs] == ["p1", "p2"]
        assert pairs[1].label == "x"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"prompt": "p"}) + "\n")
        with pytest.raises(cp.CorpusError):
            cp.load_corpus(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(cp.CorpusError, match="invalid JSON"):
            cp.load_corpus(path)

    @pytest.mark.parametrize("field", ["prompt", "story", "label"])
    def test_lone_surrogate_rejected_with_its_line(self, tmp_path, field):
        """A JSON escape can spell a lone surrogate; no UTF-8 text holds one, so the record is refused."""
        path = tmp_path / "bad.jsonl"
        record = {"prompt": "p", "story": "s", "label": "x", field: "a\ud800b"}
        path.write_text(json.dumps({"prompt": "p", "story": "s"}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(cp.CorpusError, match=rf"bad\.jsonl:2: field '{field}' is not valid Unicode text"):
            cp.load_corpus(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(cp.CorpusError):
            cp.load_corpus(tmp_path / "nope.jsonl")

    def test_toy_corpus_ships_with_package(self):
        pairs = cp.load_corpus(cp.toy_corpus_path())
        assert len(pairs) == 32
        assert len({p.label for p in pairs}) == 4


def test_word_tokens_whitespace_rule():
    assert cp.word_tokens("  the  quick\tbrown\nfox ") == ["the", "quick", "brown", "fox"]
    assert cp.word_tokens("") == []
