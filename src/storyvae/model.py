"""VAE and CVAE assembly over the transformer stacks.

The conditional model encodes the prompt alone for the prior and the
prompt ++ separator ++ story sequence for the posterior; both share the
encoder trunk and pooling block and differ only in their linear heads.
The unconditional variant keeps a fixed standard-normal prior and scores
every text position.  Checkpoints are a directory holding a JSON manifest
plus a raw little-endian float32 or float64 tensor payload, as the
manifest's ``dtype`` records; save/load round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
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


@dataclass
class LossBreakdown:
    """The two objective terms of one example, as plain floats."""

    reconstruction_nats: float
    kl_nats: float
    beta: float
    token_count: int

    def __post_init__(self):
        if self.reconstruction_nats < -1e-6 or self.kl_nats < -1e-6:
            raise ContractError("loss terms must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ContractError(f"beta must lie in [0, 1], got {self.beta}")

    @property
    def elbo_estimate(self) -> float:
        return -(self.reconstruction_nats + self.beta * self.kl_nats)

    @property
    def training_loss(self) -> float:
        return self.reconstruction_nats + self.beta * self.kl_nats


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

    def _pooled(self, tokens) -> Tensor:
        hidden = tf.stack_forward(tokens, self.params, self.config, role="encoder")
        return tf.attention_average(hidden, tf.pooling_params(self.params), self.config.heads)

    def _head(self, pooled: Tensor, role: str) -> lt.DiagonalGaussian:
        p = self.params
        return lt.gaussian_head(pooled, p[f"{role}.mu.w"], p[f"{role}.mu.b"], p[f"{role}.ls.w"], p[f"{role}.ls.b"])

    def encode_prior(self, prompt_tokens) -> lt.DiagonalGaussian:
        """Learnable prior from the prompt alone; fixed N(0, I) in VAE mode."""
        if self.mode == "vae":
            return lt.DiagonalGaussian.standard(self.config.latent_dim, dtype=self.dtype)
        return self._head(self._pooled(prompt_tokens), "prior")

    def encode_posterior(self, prompt_tokens, story_tokens, separator_id: int) -> lt.DiagonalGaussian:
        prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        story_tokens = np.asarray(story_tokens, dtype=np.int64)
        if prompt_tokens.size < 1 or story_tokens.size < 1:
            raise ContractError("the posterior needs a nonempty prompt and story")
        joint = np.concatenate([prompt_tokens, [separator_id], story_tokens])
        return self._head(self._pooled(joint), "post")

    def encode_text_posterior(self, text_tokens) -> lt.DiagonalGaussian:
        """Posterior over a bare text sequence (unconditional mode)."""
        return self._head(self._pooled(text_tokens), "post")

    def decode_logits(
        self,
        decoder_input,
        latent: lt.LatentCode | None,
        modes: tuple[str, ...] | None = None,
        drop_rng: np.random.Generator | None = None,
    ) -> Tensor:
        if modes is None:
            modes = self.config.injection_modes if latent is not None else ()
        _, logits = tf.stack_forward(
            decoder_input, self.params, self.config, role="decoder",
            latent=latent, modes=modes, drop_rng=drop_rng,
        )
        return logits

    def _require_modes(self, modes) -> tuple[str, ...]:
        modes = tuple(self.config.injection_modes if modes is None else modes)
        if not modes:
            raise ContractError("a latent-variable objective needs at least one injection mode")
        return modes

    def cvae_loss(
        self,
        example: EncodedExample,
        noise: np.ndarray,
        beta: float,
        modes: tuple[str, ...] | None = None,
        drop_rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, LossBreakdown]:
        """Single-sample conditional objective: masked story NLL + beta * KL."""
        if self.mode != "cvae":
            raise ContractError("cvae_loss requires a model in cvae mode")
        modes = self._require_modes(modes)
        sep = int(example.decoder_input[len(example.prior_input)])
        posterior = self.encode_posterior(example.prior_input, example.decoder_input[len(example.prior_input) + 1:], sep)
        prior = self.encode_prior(example.prior_input)
        z = lt.reparameterize(posterior, noise, lt.LatentSource.POSTERIOR_SAMPLE)
        logits = self.decode_logits(example.decoder_input, z, modes=modes, drop_rng=drop_rng)
        recon, _ = ag.cross_entropy(logits, example.targets, example.loss_mask)
        kl = lt.kl_divergence(posterior, prior)
        loss = ag.add(recon, ag.mul_scalar(kl, beta))
        breakdown = LossBreakdown(
            reconstruction_nats=float(recon.data),
            kl_nats=float(kl.data),
            beta=float(beta),
            token_count=int(example.loss_mask.sum()),
        )
        return loss, breakdown

    def vae_loss(
        self,
        text_tokens,
        separator_id: int,
        noise: np.ndarray,
        beta: float,
        modes: tuple[str, ...] | None = None,
        drop_rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, LossBreakdown]:
        """Unconditional objective against a fixed N(0, I) prior, all positions scored."""
        text_tokens = np.asarray(text_tokens, dtype=np.int64)
        if text_tokens.size < 1:
            raise ContractError("vae_loss needs a nonempty text")
        modes = self._require_modes(modes)
        posterior = self.encode_text_posterior(text_tokens)
        prior = lt.DiagonalGaussian.standard(self.config.latent_dim, dtype=self.dtype)
        z = lt.reparameterize(posterior, noise, lt.LatentSource.POSTERIOR_SAMPLE)
        decoder_input = np.concatenate([[separator_id], text_tokens])
        targets = np.concatenate([text_tokens, [separator_id]])
        mask = np.ones(decoder_input.size, dtype=bool)
        logits = self.decode_logits(decoder_input, z, modes=modes, drop_rng=drop_rng)
        recon, _ = ag.cross_entropy(logits, targets, mask)
        kl = lt.kl_divergence(posterior, prior)
        loss = ag.add(recon, ag.mul_scalar(kl, beta))
        breakdown = LossBreakdown(
            reconstruction_nats=float(recon.data),
            kl_nats=float(kl.data),
            beta=float(beta),
            token_count=int(mask.sum()),
        )
        return loss, breakdown

    def save(self, directory, vocabulary: str | None = None, step: int = 0,
             optimizer_payload: dict | None = None) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        names = self.params.names()
        dtype = self.dtype.newbyteorder("<").str
        write_tensor_file(directory / PARAMS_FILE, [(n, self.params[n].data) for n in names], dtype)
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
        if optimizer_payload is not None:
            write_tensor_file(directory / OPTIM_FILE, optimizer_payload["tensors"], dtype)
            manifest["optimizer"] = {
                "payload": OPTIM_FILE,
                "tensors": [n for n, _ in optimizer_payload["tensors"]],
                "update_counts": optimizer_payload["update_counts"],
            }
        (directory / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, directory) -> tuple["StoryVAE", dict]:
        directory = Path(directory)
        try:
            manifest = json.loads((directory / MANIFEST_FILE).read_text(encoding="utf-8"))
        except ValueError as e:  # undecodable bytes or malformed JSON
            raise ContractError(f"{directory / MANIFEST_FILE} is not a valid manifest: {e}") from e
        config = ModelConfig.from_dict(manifest["model"])
        arrays = read_tensor_file(directory / manifest["payload"], manifest.get("dtype", "<f4"))
        if [n for n, _ in arrays] != manifest["tensors"]:
            raise ContractError("checkpoint payload does not match its manifest")
        params = ParameterSet()
        for name, arr in arrays:
            params.add(name, Tensor(arr))
        return cls(config, params, mode=manifest["mode"]), manifest


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


def read_tensor_file(path, dtype: str = "<f4") -> list[tuple[str, np.ndarray]]:
    """Parse the records ``write_tensor_file`` writes with the same ``dtype``.

    A ``dtype`` other than ``<f4`` or ``<f8``, a blob that ends inside a
    record, including stray trailing bytes, or a name that is not UTF-8
    raises ``ContractError``.
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
        arr = np.frombuffer(take(dtype.itemsize * math.prod(shape)), dtype=dtype).reshape(shape)
        out.append((name, arr.astype(dtype.type)))
    return out
