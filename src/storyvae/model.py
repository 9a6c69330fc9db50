"""VAE and CVAE assembly over the transformer stacks.

The conditional model encodes the prompt alone for the prior and the
prompt ++ separator ++ story sequence for the posterior; both share the
encoder trunk and pooling block and differ only in their linear heads,
and each encode ends in one ``ag.pool_gaussian`` node.
The unconditional variant keeps a fixed standard-normal prior and scores
every text position.  The training objectives take a batch of examples
of any lengths and run it as one right-padded forward; a single example
is a batch of one.  Checkpoints are a directory holding a JSON manifest
plus a raw little-endian float32 or float64 tensor payload, as the
manifest's ``dtype`` records; save/load round-trips bit-exactly, and a
load reads each payload against the listing its save writes in order
(``tf.parameter_specs``, ``Adam.records``).  Checkpoints from before
dropout was retired record a dropout rate and a dropout RNG state; they
load with both ignored if the rate is 0.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import latent as lt
from . import transformer as tf
from .autograd import ParameterSet, Tensor
from .corpus import EncodedExample
from .transformer import ContractError, ModelConfig

PARAMS_FILE = "params.bin"
OPTIM_FILE = "optim.bin"
MANIFEST_FILE = "manifest.json"
# The trainer's random streams, whose generator states a checkpoint keeps.
RNG_STREAMS = ("batch", "noise")
# The token id a training batch is right-padded with; no loss or gradient depends on it.
PAD_ID = 0


@dataclass
class LossBreakdown:
    """The two objective terms as plain floats: per-example means over a batch, and its scored token count."""

    reconstruction_nats: float
    kl_nats: float
    beta: float
    token_count: int

    def __post_init__(self):
        if self.reconstruction_nats < -1e-6 or self.kl_nats < -1e-6:
            raise ContractError("loss terms must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ContractError(f"beta must lie in [0, 1], got {self.beta}")


class StoryVAE:
    """Encoder, latent heads and decoder bundled behind one parameter set."""

    def __init__(self, config: ModelConfig, params: ParameterSet, mode: str = "cvae"):
        if mode not in ("vae", "cvae"):
            raise ContractError(f"mode must be 'vae' or 'cvae', got {mode}")
        self.config = config
        self.params = params
        self.mode = mode

    @classmethod
    def create(cls, config: ModelConfig, seed: int = 0, mode: str = "cvae", dtype=np.float32) -> "StoryVAE":
        rng = np.random.default_rng([seed, 0xC0DE])
        return cls(config, tf.init_parameters(config, rng, dtype=dtype), mode=mode)

    @property
    def dtype(self):
        return self.params["embed.word"].dtype

    @ag.sink_pass
    def _encode(self, tokens, role: str, key_mask=None) -> lt.DiagonalGaussian:
        """The ``role`` Gaussian of (T,) tokens or a (B, T) batch: the encoder stack, then one ``ag.pool_gaussian``.

        The two run as one sink pass (``ag.sink_pass``): only each
        attention's scores and ``ag.pool_gaussian``'s own checks are made,
        and every non-finite value of the pass reaches one of them.
        """
        p = self.params
        heads = ("mu.w", "mu.b", "ls.w", "ls.b")
        tensors = p.memo(role, lambda: [p[name] for name in tf.POOL_NAMES + tuple(f"{role}.{n}" for n in heads)])
        hidden = tf.encode_stack(tokens, p, self.config, key_mask)
        return lt.DiagonalGaussian(*ag.pool_gaussian(hidden, *tensors, self.config.heads, lt.LOG_SIGMA_MIN,
                                                     lt.LOG_SIGMA_MAX, key_mask))

    def encode_prior(self, prompt_tokens) -> lt.DiagonalGaussian:
        """Learnable prior from the prompt alone; fixed N(0, I) in VAE mode.

        A (B, P) batch of equal-length prompts gives a (B, d') Gaussian.
        """
        if self.mode == "vae":
            shape = np.shape(prompt_tokens)[:-1] + (self.config.latent_dim,)
            return lt.DiagonalGaussian.standard(shape, dtype=self.dtype)
        return self._encode(prompt_tokens, "prior")

    def encode_posterior(self, prompt_tokens, story_tokens, separator_id: int) -> lt.DiagonalGaussian:
        prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        story_tokens = np.asarray(story_tokens, dtype=np.int64)
        if prompt_tokens.size < 1 or story_tokens.size < 1:
            raise ContractError("the posterior needs a nonempty prompt and story")
        return self.encode_text_posterior(np.concatenate([prompt_tokens, [separator_id], story_tokens]))

    def encode_text_posterior(self, text_tokens) -> lt.DiagonalGaussian:
        """Posterior over a whole token sequence, or a (B, T) batch of equal-length ones.

        The sequence is the bare text in VAE mode, and prompt ++ separator
        ++ story in CVAE mode, which is what ``encode_posterior`` builds.
        """
        return self._encode(text_tokens, "post")

    def _encode_padded(self, sequences, role: str) -> lt.DiagonalGaussian:
        """The (B, d') ``role`` Gaussian of B sequences of any lengths, encoded as one right-padded batch."""
        tokens, valid = tf.pad_rows(sequences, PAD_ID)
        return self._encode(tokens, role, valid[:, None, None, :])

    def _modes(self, latent, modes):
        if modes is None:
            return self.config.injection_modes if latent is not None else ()
        return modes

    def decoder_cache(self, latent: lt.LatentCode | None, modes: tuple[str, ...] | None = None,
                      positions: int | None = None) -> tf.DecoderCache:
        """State for decoding one story, or a batch under a (B, d') latent, incrementally.

        Feed every token of that story or batch through it with
        ``tf.decode_stack(cache, tokens)``.  It holds ``positions`` tokens,
        ``max_seq_len`` by default; any other count outside 1 to
        ``max_seq_len`` raises ``ContractError``.  A call that raises leaves
        the cache's ``length`` as it was, so the cache stays usable.
        """
        return tf.DecoderCache(self.params, self.config, latent, self._modes(latent, modes), positions)

    def decode_logits(self, decoder_input, latent: lt.LatentCode | None,
                      modes: tuple[str, ...] | None = None) -> Tensor:
        """Logits for every position of ``decoder_input``: (T,) tokens, or a (B, T) batch under a (B, d') latent.

        The tokens start at position 0, in a cache of their T positions built for the call.
        """
        # Capped, so that an input past max_seq_len meets decode_stack's length check.
        length = np.shape(decoder_input)[-1] if np.ndim(decoder_input) else 1
        positions = min(max(length, 1), self.config.max_seq_len)
        return tf.decode_stack(self.decoder_cache(latent, modes, positions), decoder_input)

    def _require_modes(self) -> None:
        if not self.config.injection_modes:
            raise ContractError("a latent-variable objective needs at least one injection mode")

    def cvae_loss(self, examples, noise: np.ndarray, beta: float) -> tuple[Tensor, LossBreakdown]:
        """Single-sample conditional objective of a batch: (sum of masked story NLLs + beta * sum of KLs) / B.

        ``examples`` is a list of B ``EncodedExample``s of any lengths with
        ``noise`` of shape (B, d'), or one example with a (d',) ``noise``,
        a batch of one.  Prompts, posterior inputs and decoder inputs each
        run as one right-padded batch; the loss is the batch mean of the
        per-example objectives, and the breakdown holds the means of its
        two terms.
        """
        if self.mode != "cvae":
            raise ContractError("cvae_loss requires a model in cvae mode")
        self._require_modes()
        if isinstance(examples, EncodedExample):
            examples, noise = [examples], np.asarray(noise)[None]
        # decoder_input is prompt ++ separator ++ story, the sequence the posterior encodes.
        texts = [ex.decoder_input for ex in examples]
        posterior = self._encode_padded(texts, "post")
        prior = self._encode_padded([ex.prior_input for ex in examples], "prior")
        return self._objective(posterior, prior, noise, beta, texts, [ex.targets for ex in examples],
                               [ex.loss_mask for ex in examples])

    def vae_loss(self, texts, separator_id: int, noise: np.ndarray, beta: float) -> tuple[Tensor, LossBreakdown]:
        """Unconditional objective of a batch against a fixed N(0, I) prior, every position scored.

        ``texts`` is a list of B token sequences of any lengths with
        ``noise`` of shape (B, d'), or one sequence of token ids with a
        (d',) ``noise``; the loss is the batch mean, as in ``cvae_loss``.
        """
        self._require_modes()
        if len(texts) and np.ndim(texts[0]) == 0:
            texts, noise = [texts], np.asarray(noise)[None]
        texts = [np.asarray(t, dtype=np.int64) for t in texts]
        posterior = self._encode_padded(texts, "post")
        prior = lt.DiagonalGaussian.standard((len(texts), self.config.latent_dim), dtype=self.dtype)
        decoder_inputs = [np.concatenate([[separator_id], t]) for t in texts]
        targets = [np.concatenate([t, [separator_id]]) for t in texts]
        return self._objective(posterior, prior, noise, beta, decoder_inputs, targets,
                               [np.ones(t.size, dtype=bool) for t in decoder_inputs])

    def _objective(self, posterior, prior, noise, beta, decoder_inputs, targets, masks):
        """Decode posterior samples as one right-padded batch and score it: (masked NLL + beta * KL) / B, one node.

        The decoder needs no key mask, since it is causal and the padding
        is on the right, and pad positions are masked out of the NLL, so
        they get exactly zero gradient and no loss depends on ``PAD_ID``.
        """
        b = len(decoder_inputs)
        z = lt.reparameterize(posterior, noise, lt.LatentSource.POSTERIOR_SAMPLE)
        logits = self.decode_logits(tf.pad_rows(decoder_inputs, PAD_ID)[0], z)
        mask = tf.pad_rows(masks, False)[0]
        recon, _ = ag.cross_entropy(logits, tf.pad_rows(targets, PAD_ID)[0], mask)
        kl = ag.gaussian_kl(posterior.mu, posterior.log_sigma, prior.mu, prior.log_sigma)
        loss = ag.elbo_loss(recon, kl, beta, b)
        breakdown = LossBreakdown(
            reconstruction_nats=float(recon.data) / b,
            kl_nats=float(np.add.reduce(kl.data, axis=None)) / b,
            beta=float(beta),
            token_count=int(mask.sum()),
        )
        return loss, breakdown

    def save(self, directory, vocabulary: str | None = None, step: int = 0,
             optimizer_payload: dict | None = None) -> None:
        """Write the checkpoint files under temporary names, then move each over its old copy, the manifest last.

        ``optimizer_payload``'s ``tensors`` go to ``optim.bin`` and its other
        keys to the manifest's ``optimizer`` block.  A save that raises
        part-way leaves the previous checkpoint as it was.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = [name for name, _, _ in tf.parameter_specs(self.config)]
        dtype = self.dtype.newbyteorder("<").str
        manifest = {
            "dtype": dtype,
            "model": self.config.to_dict(),
            "mode": self.mode,
            "vocabulary": vocabulary,
            "step": int(step),
            "tensors": names,
            "payload": PARAMS_FILE,
            "optimizer": None,
        }
        staged: list[str] = []

        def stage(name: str) -> Path:
            staged.append(name)
            return directory / f"{name}.tmp"

        try:
            write_tensor_file(stage(PARAMS_FILE), [(n, self.params[n].data) for n in names], dtype)
            if optimizer_payload is not None:
                write_tensor_file(stage(OPTIM_FILE), optimizer_payload["tensors"], dtype)
                manifest["optimizer"] = {"payload": OPTIM_FILE,
                                         **{k: v for k, v in optimizer_payload.items() if k != "tensors"}}
            stage(MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            for name in staged:
                os.replace(directory / f"{name}.tmp", directory / name)
        finally:
            for name in staged:
                (directory / f"{name}.tmp").unlink(missing_ok=True)

    @classmethod
    def load(cls, directory) -> tuple["StoryVAE", dict]:
        directory = Path(directory)
        try:
            manifest = json.loads((directory / MANIFEST_FILE).read_text(encoding="utf-8"))
        except ValueError as e:  # undecodable bytes or malformed JSON
            raise ContractError(f"{directory / MANIFEST_FILE} is not a valid manifest: {e}") from e
        if not isinstance(manifest, dict):
            raise ContractError(f"{directory / MANIFEST_FILE} is not a JSON object")
        _drop_legacy_dropout(manifest)
        _check_manifest(manifest, directory)
        config = ModelConfig.from_dict(manifest["model"])
        payload, names = directory / manifest["payload"], manifest["tensors"]
        # Counted in closed form before any listing is built: a config of 10**30 layers is refused, not built.
        tensors, elements = tf.parameter_count(config)
        if tensors != len(names) or 4 * elements > payload.stat().st_size:
            raise ContractError(f"{directory / MANIFEST_FILE}: its model config implies {tensors} tensors of {elements} "
                                f"values; its list names {len(names)}, {payload} holds {payload.stat().st_size} bytes")
        listing = [(name, shape) for name, shape, _ in tf.parameter_specs(config)]
        for i, (name, (want, _)) in enumerate(zip(names, listing)):
            if name != want:
                raise ContractError(f"{directory / MANIFEST_FILE}: tensor {i} of its list is {name!r}, the config's {want!r}")
        arrays = read_tensor_file(payload, manifest.get("dtype", "<f4"), listing)
        return cls(config, ParameterSet(arrays), mode=manifest["mode"]), manifest


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_rng_state(value) -> bool:
    """Whether ``value`` is a ``PCG64`` ``bit_generator.state`` as JSON gives it back."""
    if not (isinstance(value, dict) and set(value) == {"bit_generator", "state", "has_uint32", "uinteger"}
            and value["bit_generator"] == "PCG64" and isinstance(value["state"], dict)
            and set(value["state"]) == {"state", "inc"}):
        return False
    words = [value["state"]["state"], value["state"]["inc"], value["has_uint32"], value["uinteger"]]
    return all(_is_count(w) for w in words) and max(words[:2]) < 2**128 and words[2] <= 1 and words[3] < 2**32


def _drop_legacy_dropout(manifest: dict) -> None:
    """Remove what checkpoints from before dropout was retired keep of it: the model's rate and its RNG state.

    A rate of 0 describes the model that loads; any other rate cannot be
    honoured and raises ``ContractError``.
    """
    model = manifest.get("model")
    if isinstance(model, dict) and "dropout" in model:
        rate = model.pop("dropout")
        if type(rate) not in (int, float) or rate != 0:
            raise ContractError(f"the checkpoint's model has dropout {rate!r}; dropout is retired, so only 0 loads")
    optimizer = manifest.get("optimizer")
    if isinstance(optimizer, dict) and isinstance(optimizer.get("rng_states"), dict):
        optimizer["rng_states"].pop("dropout", None)


def _check_manifest(manifest: dict, directory: Path) -> None:
    """Raise ``ContractError`` unless the fields besides ``dtype`` have their saved types.

    ``model`` need only be an object here; ``ModelConfig.from_dict`` checks its fields.
    """

    def check_payload(payload, what: str) -> None:
        if not (isinstance(payload, str) and payload and Path(payload).name == payload
                and (directory / payload).is_file()):
            raise ContractError(f"{what} {payload!r} does not name a file in {directory}")

    check_payload(manifest.get("payload"), "manifest payload")
    if not isinstance(manifest.get("model"), dict):
        raise ContractError(f"manifest model must be an object of config fields, got {manifest.get('model')!r}")
    if manifest.get("mode") not in ("vae", "cvae"):
        raise ContractError(f"manifest mode must be 'vae' or 'cvae', got {manifest.get('mode')!r}")
    if not _is_count(manifest.get("step")):
        raise ContractError(f"manifest step must be an integer >= 0, got {manifest.get('step')!r}")
    if not _is_str_list(manifest.get("tensors")):
        raise ContractError("manifest tensors must be a list of names")
    optimizer = manifest.get("optimizer")
    if optimizer is None:
        return
    if not isinstance(optimizer, dict):
        raise ContractError(f"manifest optimizer must be null or an object, got {optimizer!r}")
    check_payload(optimizer.get("payload"), "manifest optimizer payload")
    counts = optimizer.get("update_counts")
    if not (isinstance(counts, dict) and all(_is_count(c) for c in counts.values())):
        raise ContractError("manifest optimizer needs integer update counts")
    states = optimizer.get("rng_states")
    if states is not None and not (isinstance(states, dict) and set(states) == set(RNG_STREAMS)
                                   and all(_is_rng_state(v) for v in states.values())):
        raise ContractError(f"manifest optimizer rng_states must hold a PCG64 state for each of {RNG_STREAMS}")
    cycle = optimizer.get("cycle_length")
    if cycle is not None and not (_is_count(cycle) and cycle >= 1):
        raise ContractError(f"manifest optimizer cycle_length must be an integer >= 1, got {cycle!r}")
    freeze = optimizer.get("freeze_steps")
    if freeze is not None and not _is_count(freeze):
        raise ContractError(f"manifest optimizer freeze_steps must be an integer >= 0, got {freeze!r}")
    floor = optimizer.get("beta_floor")
    if floor is not None and not (isinstance(floor, (int, float)) and not isinstance(floor, bool) and 0 <= floor < 1):
        raise ContractError(f"manifest optimizer beta_floor must be a number in [0, 1), got {floor!r}")


def write_tensor_file(path, named_arrays, dtype: str = "<f4") -> None:
    """Write (name, array) records: u32 name length, name bytes, u32 rank, u32 extents, data.

    ``dtype`` is the data's wire format, ``<f4`` or ``<f8``.
    """
    with open(path, "wb") as fh:
        for name, arr in named_arrays:
            data = np.ascontiguousarray(arr, dtype=dtype)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes(order="C"))


def read_tensor_file(path, dtype: str = "<f4", listing=None) -> list[tuple[str, np.ndarray]]:
    """Parse the records ``write_tensor_file`` writes with the same ``dtype``.

    On little-endian machines the arrays are read-only views of the file's
    bytes.  A ``dtype`` other than ``<f4`` or ``<f8``, a blob that ends
    inside a record, including stray trailing bytes, a name that is not
    UTF-8, or a NaN or Inf value raises ``ContractError``; so does, given
    a ``listing`` of ``(name, shape)`` tuples, any record but the listed
    ones in their order: a stray, a duplicate or a missing one.
    """
    if dtype not in ("<f4", "<f8"):
        raise ContractError(f"{path}: tensor dtype must be '<f4' or '<f8', got {dtype!r}")
    dtype = np.dtype(dtype)
    out = []
    blob = memoryview(Path(path).read_bytes())
    offset = 0

    def take(n: int) -> memoryview:
        nonlocal offset
        if n > len(blob) - offset:
            raise ContractError(f"{path}: record at byte {offset} needs {n} bytes, {len(blob) - offset} left")
        offset += n
        return blob[offset - n:offset]

    while offset < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ContractError(f"{path}: tensor name before byte {offset} is not UTF-8") from e
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        if listing is not None and (len(out) == len(listing) or listing[len(out)] != (name, shape)):
            want = "no more records" if len(out) == len(listing) else "{!r} of shape {}".format(*listing[len(out)])
            raise ContractError(f"{path}: record {len(out)} is tensor {name!r} of shape {shape}, expected {want}")
        arr = np.frombuffer(take(dtype.itemsize * math.prod(shape)), dtype=dtype).reshape(shape)
        if not np.isfinite(arr).all():
            raise ContractError(f"{path}: tensor {name!r} holds non-finite values")
        out.append((name, arr.astype(dtype.type, copy=False)))
    if listing is not None and len(out) < len(listing):
        raise ContractError(f"{path}: tensor {listing[len(out)][0]!r} is missing, after {len(out)} records")
    return out
