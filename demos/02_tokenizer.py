#!/usr/bin/env python3
"""Byte-level BPE: fitting, round-trips, and the prompt/story example layout."""

from storyvae import corpus as cp

pairs = cp.load_corpus(cp.toy_corpus_path())
texts = [p.prompt_text for p in pairs] + [p.story_text for p in pairs]

vocab = cp.fit_vocabulary(texts, target_size=512)
print(f"fitted {vocab.size} tokens ({len(vocab.merges)} merges), separator id {vocab.separator_id}")

sample = "the glacier groaned and a crystal cracked"
ids = vocab.encode(sample)
print(f"encode ->: {ids}")
print("round trip ok:", vocab.decode(ids) == sample)
print("lossless on anything:", vocab.decode(vocab.encode("ünïcødé 🙂")) == "ünïcødé 🙂")

# One training example: the decoder and the posterior see prompt ++ SEP ++
# story, the loss mask covers exactly the story targets plus the terminal
# separator.
example = cp.build_example(pairs[0], vocab, max_len=64)
print("prior input:     ", example.prior_input)
print("decoder input:   ", example.decoder_input)
print("targets:         ", example.targets)
print("loss mask:       ", example.loss_mask.astype(int))
print("masked targets == story tokens + 1:", example.loss_mask.sum() == len(example.pair.story_tokens) + 1)
