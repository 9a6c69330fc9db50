"""Property tests: arbitrary file bytes either parse or raise a documented error, and BPE matches its oracles.

Each loader the CLI reads a user-supplied file with must map every
malformed input to ``CorpusError``, ``ContractError`` or ``UsageError``
(exit 2 or 1), never to another exception and a traceback.  Examples
are derandomized and no example database is written, so the suite stays
deterministic.  Hypothesis still caches Unicode tables and constants in
``.hypothesis/``, which the checkout ignores.

A trained checkpoint is fuzzed by structure as well: every node of its
manifest deleted or replaced by an odd JSON value, and its tensor files
truncated or hit by single-bit flips.  Each damaged checkpoint must load,
model and optimizer state both, or raise ``ContractError``,
``CorpusError`` or ``OSError``.  Damage to whole records, each one
duplicated or swapped with the next, must be refused, naming the file
and the tensor.
"""

import copy
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storyvae import cli
from storyvae import corpus as cp
from storyvae.model import MANIFEST_FILE, OPTIM_FILE, PARAMS_FILE, StoryVAE, read_tensor_file, write_tensor_file
from storyvae.selfcheck import bpe_fit_oracle, bpe_scan_oracle
from storyvae.training import Trainer, TrainingSchedule
from storyvae.transformer import ContractError

LOADERS = {
    "vocab": cp.Vocabulary.load,
    "corpus": cp.load_corpus,
    "tensor_file": lambda path: read_tensor_file(path, "<f4"),
    "config": cli.parse_config_file,
}

# Raw bytes, plus text over the characters the formats are built from, so
# examples also reach the parsers behind the decoding step.
FILE_BYTES = st.one_of(
    st.binary(max_size=96),
    st.text(alphabet='0123456789 -+_.\n\r\t{}[]":,=#abdeklmoprsty\x00\xff', max_size=96).map(
        lambda s: s.encode("latin-1")
    ),
)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(blob=FILE_BYTES)
def test_arbitrary_bytes_parse_or_raise_documented_error(loader, blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(blob)
        try:
            LOADERS[loader](path)
        except (cp.CorpusError, ContractError, cli.UsageError):
            pass


# Fitted on the toy corpus plus text in other scripts, so merges span multi-byte characters too.
FITTED = cp.fit_vocabulary(
    [p.prompt_text + " " + p.story_text for p in cp.load_corpus(cp.toy_corpus_path())]
    + ["naïve café déjà vu", "日本語の物語 物語", "сказка о море", "🙂🙂 emoji 🙂"] * 2,
    320,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=st.text())
def test_bpe_round_trips_arbitrary_unicode(text):
    assert FITTED.decode(FITTED.encode(text)) == text


@st.composite
def text_and_merges(draw):
    """A text and a valid merge list, most of whose merges join a pair the text has at that rank.

    Each merge k joins two adjacent ids, or two equal adjacent ids, of the
    text as the list scan leaves it after merges 0..k-1, or pairs any two
    defined ids.  So the lists hold (a, a) pairs over runs, pairs that cut
    a multi-byte character, and merges no later merge builds on.
    """
    # A few-letter alphabet gives runs and repeats, where leftmost matching matters.
    text = draw(st.one_of(st.text(max_size=40), st.text(alphabet="aaαb🙂 ", min_size=8, max_size=40)))
    return text, draw_merges(draw, text)


def draw_merges(draw, text: str) -> list[tuple[int, int]]:
    """``text_and_merges``'s merge list for ``text``."""
    ids, merges = list(text.encode("utf-8")), []
    for k in range(draw(st.integers(1, 24))):
        pairs = list(zip(ids, ids[1:]))
        runs = [(a, b) for a, b in pairs if a == b]
        any_id = st.integers(0, cp.N_BYTE_TOKENS + k - 1)
        merges.append(draw(st.one_of([st.sampled_from(p) for p in (pairs, runs) if p] + [st.tuples(any_id, any_id)])))
        ids = bpe_scan_oracle(ids, merges[-1:], cp.N_BYTE_TOKENS + k)
    return merges


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(case=text_and_merges())
# "αα" is CE B1 CE B1: (B1, CE) cuts across two characters, (CE, B1) joins one; "aaa" has overlapping (a, a).
@example(case=("ααα aaa", [(0xB1, 0xCE), (0xCE, 0xB1), (97, 97), (258, 258), (256, 256), (32, 258)]))
def test_bpe_encode_matches_the_list_scan(case):
    text, merges = case
    assert cp.Vocabulary(merges).encode(text) == bpe_scan_oracle(list(text.encode("utf-8")), merges)


@st.composite
def texts_and_merges(draw):
    """Texts, empty ones among them, and a merge list drawn from their concatenation, so pairs across texts too."""
    texts = draw(st.lists(st.one_of(st.just(""), st.text(max_size=12), st.text(alphabet="aaαb🙂 ", max_size=12)),
                          max_size=6))
    return texts, draw_merges(draw, "".join(texts))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=texts_and_merges())
# "ab" forms across "xa" + "by" and inside "ab"; B1 CE across "α" + "α" and inside "αα" (CE B1 CE B1).
@example(case=(["xa", "by", "", "ab"], [(97, 98), (256, 97)]))
@example(case=(["α", "α", "", "αα"], [(0xB1, 0xCE), (0xCE, 0xB1)]))
def test_bpe_encodes_a_corpus_as_each_text_alone(case):
    texts, merges = case
    want = [bpe_scan_oracle(list(text.encode("utf-8")), merges) for text in texts]
    assert cp.Vocabulary(merges).encode_texts(texts) == want


# Few letters give runs, repeats and ties; the multi-byte alphabets give pairs inside and across characters.
FIT_ALPHABETS = ("ab", "ab ", "abc ", "aα🙂 ", "éß中 ")


@st.composite
def corpus_and_target(draw):
    alphabet = draw(st.sampled_from(FIT_ALPHABETS))
    texts = draw(st.lists(st.text(alphabet=alphabet, max_size=24), min_size=1, max_size=8))
    return texts, draw(st.integers(cp.MIN_VOCAB_SIZE, 320))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=corpus_and_target())
@example(case=(["aaaaa aaaa"], 300))  # overlapping runs of (a, a)
# Merging "  " takes " a" from 3 to 2, where it ties "aa": the smaller " a" must win.
@example(case=(["  a aa", "aa   a"], 260))
@example(case=(["", "abab", "", "ab"], 270))  # empty texts among the others
@example(case=(["abab cd"], 300))  # after "ab" no pair occurs twice, far below the target
def test_bpe_fit_matches_the_recount_oracle(case):
    texts, target = case
    assert cp.fit_vocabulary(texts, target).merges == bpe_fit_oracle(texts, target)


CHECKPOINT_ERRORS = (ContractError, cp.CorpusError, OSError)
# What each manifest node is replaced by, besides being deleted.
ODD_JSON = [None, -1, 0, 1.5, "x", [], {}, True, 10**30, 1e308, float("nan")]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A checkpoint of a few train steps at a small config, the vocabulary's examples, and its manifest."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = str(cp.toy_corpus_path())
    model = ["--model.d", "16", "--model.layers", "1", "--model.encoder-layers", "1", "--model.heads", "2",
             "--model.latent-dim", "8", "--model.vocab-size", "300", "--model.max-seq-len", "64"]
    assert cli.main(["vocab", "--corpus", corpus, "--out", str(root / "v")] + model) == 0
    vocab = cp.Vocabulary.load(root / "v" / "vocab.txt")
    assert cli.main(["train", "--corpus", corpus, "--vocab", str(root / "v" / "vocab.txt"), "--out", str(root / "t"),
                     "--train.steps", "4", "--train.batch-size", "2"] + model) == 0
    checkpoint = root / "t" / "checkpoint"
    examples = cp.prepare_corpus(cp.load_corpus(corpus), vocab, 64)
    return checkpoint, examples, vocab.separator_id, json.loads((checkpoint / MANIFEST_FILE).read_text())


def load_checkpoint(directory: Path, examples, separator_id: int) -> None:
    """Load the model, then its optimizer state into a trainer, as ``train --resume`` does."""
    model, manifest = StoryVAE.load(directory)
    trainer = Trainer(model, examples, TrainingSchedule(total_steps=1), separator_id=separator_id)
    trainer.load_optimizer_state(directory, manifest)


def outcomes(directory: Path, cases, examples, separator_id: int) -> tuple[int, int, list[str]]:
    """Run each ``(name, prepare)``: ``prepare()`` damages the files, then the load runs; returns the tallies.

    The tallies are the loads, the documented refusals, and the names of
    the cases that raised anything else, each with its exception.
    """
    loaded, refused, escaped = 0, 0, []
    for name, prepare in cases:
        prepare()
        try:
            load_checkpoint(directory, examples, separator_id)
            loaded += 1
        except CHECKPOINT_ERRORS:
            refused += 1
        except Exception as e:  # noqa: BLE001 - every other exception is what the test looks for
            escaped.append(f"{name}: {type(e).__name__}: {e}")
    return loaded, refused, escaped


def manifest_paths(node, path=()):
    """Every node under the manifest's root, as the path of keys and indices that reaches it, parents first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from manifest_paths(child, path + (key,))


def test_every_manifest_mutation_loads_or_raises_a_documented_error(trained, tmp_path):
    checkpoint, examples, separator_id, manifest = trained
    shutil.copytree(checkpoint, tmp_path, dirs_exist_ok=True)

    def mutation(path, value, delete):
        def prepare():
            mutated = copy.deepcopy(manifest)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            (tmp_path / MANIFEST_FILE).write_text(json.dumps(mutated))
        return prepare

    cases = []
    for path in manifest_paths(manifest):
        where = "/".join(map(str, path))
        cases.append((f"delete {where}", mutation(path, None, True)))
        cases += [(f"{where} = {value!r}", mutation(path, value, False)) for value in ODD_JSON]
    loaded, refused, escaped = outcomes(tmp_path, cases, examples, separator_id)
    assert not escaped, escaped
    assert loaded and refused and loaded + refused == len(cases) > 1000


@pytest.mark.parametrize("payload", [PARAMS_FILE, OPTIM_FILE])
def test_truncated_or_bit_flipped_payloads_load_or_raise_a_documented_error(trained, tmp_path, payload):
    checkpoint, examples, separator_id, _ = trained
    shutil.copytree(checkpoint, tmp_path, dirs_exist_ok=True)
    blob = (checkpoint / payload).read_bytes()

    def damaged(data: bytes):
        return lambda: (tmp_path / payload).write_bytes(data)

    cases = [(f"truncated to {n}", damaged(blob[:n])) for n in (0, 1, 3, 4, 7, 100, len(blob) // 2, len(blob) - 4,
                                                                   len(blob) - 1)]
    for bit in np.random.default_rng(0).integers(0, 8 * len(blob), size=300).tolist():
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        cases.append((f"bit {bit} flipped", damaged(bytes(flipped))))
    loaded, refused, escaped = outcomes(tmp_path, cases, examples, separator_id)
    assert not escaped, escaped
    assert loaded and refused


@pytest.mark.parametrize("payload", [PARAMS_FILE, OPTIM_FILE])
def test_whole_record_damage_is_refused_naming_the_file_and_the_tensor(trained, tmp_path, payload):
    """Each record duplicated, or swapped with the next; in ``params.bin`` each swap also with the manifest's list to match.

    A payload must hold its listing's records in order, so every case is
    refused with ``ContractError``, naming the tensor and the file: the
    manifest where its list was reordered, else the payload.
    """
    checkpoint, examples, separator_id, manifest = trained
    shutil.copytree(checkpoint, tmp_path, dirs_exist_ok=True)
    records = read_tensor_file(checkpoint / payload)
    cases = []  # (damaged records, the tensor named, whether the manifest lists them)
    for i, (tensor, _) in enumerate(records):
        cases.append((records[:i + 1] + records[i:], tensor, False))
        if i + 1 < len(records):
            swapped = records[:i] + [records[i + 1], records[i]] + records[i + 2:]
            cases.append((swapped, tensor, False))
            if payload == PARAMS_FILE:
                cases.append((swapped, tensor, True))
    not_refused = []
    for damaged, tensor, listed in cases:
        write_tensor_file(tmp_path / payload, damaged)
        (tmp_path / MANIFEST_FILE).write_text(json.dumps(dict(manifest, tensors=[n for n, _ in damaged])
                                                         if listed else manifest))
        named = tmp_path / (MANIFEST_FILE if listed else payload)
        try:
            load_checkpoint(tmp_path, examples, separator_id)
            not_refused.append(f"{tensor} ({len(damaged)} records): loaded")
        except ContractError as e:
            if not (str(named) in str(e) and repr(tensor) in str(e)):
                not_refused.append(f"{tensor} ({len(damaged)} records): {e}")
    assert not not_refused, not_refused
    assert len(cases) > 100
