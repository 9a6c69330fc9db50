"""Property tests: arbitrary file bytes either parse or raise a documented error.

Each loader the CLI reads a user-supplied file with must map every
malformed input to ``CorpusError``, ``ContractError`` or ``UsageError``
(exit 2 or 1), never to another exception and a traceback.  Examples
are derandomized and no example database is written, so the suite stays
deterministic and leaves no ``.hypothesis/`` directory in the checkout.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from storyvae import cli
from storyvae import corpus as cp
from storyvae.model import read_tensor_file
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
