"""Blocked self-attention stacks and the two special attention mechanisms.

The same pre-layer-norm GPT-2 style block serves both stacks: the decoder
runs all layers with a causal mask, the encoder runs the first few layers
unmasked (their values are copied from the decoder layers at init and
trained separately).  Word and position embeddings are shared between the
stacks and the word table is tied to the decoder's logit head.

Three latent injection routes exist for the decoder:
  input:   a projected latent vector is added to every input embedding,
  psa:     the latent is split per layer and prefixed as one extra
           key/value row inside each attention (queries stay token-only),
  softmax: a shared head projects the latent to a logit vector that is
           added to the pre-softmax logits at every position.
An exactly-all-zero per-layer latent slice injects nothing, so zeroed
injection projections leave the latent-free forward bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ParameterSet, Tensor

INJECTION_MODES = ("input", "psa", "softmax")

INIT_STD = 0.02
POS_INIT_STD = 0.01
LN_EPS = 1e-5


class ContractError(ValueError):
    """A forward was invoked outside its configured contract."""


@dataclass(frozen=True)
class ModelConfig:
    d: int = 64
    layers: int = 4
    encoder_layers: int = 2
    heads: int = 4
    latent_dim: int = 64
    vocab_size: int = 512
    max_seq_len: int = 256
    injection_modes: tuple[str, ...] = ("psa",)
    dropout: float = 0.0
    injection_gain: float = 1.0
    latent_head_gain: float = 1.0

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ContractError(f"model width {self.d} is not divisible by {self.heads} heads")
        if not 1 <= self.encoder_layers <= self.layers:
            raise ContractError(
                f"encoder layers must lie in [1, {self.layers}], got {self.encoder_layers}"
            )
        bad = [m for m in self.injection_modes if m not in INJECTION_MODES]
        if bad:
            raise ContractError(f"unknown injection mode(s) {bad}; choose from {INJECTION_MODES}")
        if len(set(self.injection_modes)) != len(self.injection_modes):
            raise ContractError("duplicate injection modes")
        if self.vocab_size < 2 or self.max_seq_len < 2:
            raise ContractError("vocab_size and max_seq_len must be at least 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.injection_gain <= 0 or self.latent_head_gain <= 0:
            raise ContractError("init gains must be positive")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "layers": self.layers,
            "encoder_layers": self.encoder_layers,
            "heads": self.heads,
            "latent_dim": self.latent_dim,
            "vocab_size": self.vocab_size,
            "max_seq_len": self.max_seq_len,
            "injection_modes": list(self.injection_modes),
            "dropout": self.dropout,
            "injection_gain": self.injection_gain,
            "latent_head_gain": self.latent_head_gain,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["injection_modes"] = tuple(d.get("injection_modes", ()))
        return cls(**d)


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    psa_wk: Tensor | None = None
    psa_bk: Tensor | None = None
    psa_wv: Tensor | None = None
    psa_bv: Tensor | None = None

    @property
    def has_psa(self) -> bool:
        return self.psa_wk is not None


@dataclass
class PoolingParams:
    q: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def _normal(rng, shape, std, dtype):
    return Tensor((rng.standard_normal(shape) * std).astype(dtype))


def _zeros(shape, dtype):
    return Tensor(np.zeros(shape, dtype=dtype))


def _ones(shape, dtype):
    return Tensor(np.ones(shape, dtype=dtype))


def _add_block_params(params: ParameterSet, prefix: str, cfg: ModelConfig, rng, dtype, with_psa: bool):
    d = cfg.d
    params.add(f"{prefix}.ln1.g", _ones(d, dtype))
    params.add(f"{prefix}.ln1.b", _zeros(d, dtype))
    for name in ("wq", "wk", "wv", "wo"):
        params.add(f"{prefix}.attn.{name}", _normal(rng, (d, d), INIT_STD, dtype))
    # No key bias: a bias shared by every key cancels inside the softmax.
    for name in ("bq", "bv", "bo"):
        params.add(f"{prefix}.attn.{name}", _zeros(d, dtype))
    if with_psa:
        params.add(f"{prefix}.psa.wk", _normal(rng, (d, d), INIT_STD, dtype))
        params.add(f"{prefix}.psa.bk", _zeros(d, dtype))
        params.add(f"{prefix}.psa.wv", _normal(rng, (d, d), INIT_STD, dtype))
        params.add(f"{prefix}.psa.bv", _zeros(d, dtype))
    params.add(f"{prefix}.ln2.g", _ones(d, dtype))
    params.add(f"{prefix}.ln2.b", _zeros(d, dtype))
    params.add(f"{prefix}.mlp.w1", _normal(rng, (d, 4 * d), INIT_STD, dtype))
    params.add(f"{prefix}.mlp.b1", _zeros(4 * d, dtype))
    params.add(f"{prefix}.mlp.w2", _normal(rng, (4 * d, d), INIT_STD, dtype))
    params.add(f"{prefix}.mlp.b2", _zeros(d, dtype))


def init_parameters(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> ParameterSet:
    """Build all trainable tensors.

    Encoder blocks start as value copies of the first encoder_layers
    decoder blocks (copied, not shared, so they train apart afterwards).
    Injection projections exist only for the configured modes.
    """
    d, dp = cfg.d, cfg.latent_dim
    params = ParameterSet()
    params.add("embed.word", _normal(rng, (cfg.vocab_size, d), INIT_STD, dtype))
    params.add("embed.pos", _normal(rng, (cfg.max_seq_len, d), POS_INIT_STD, dtype))

    psa = "psa" in cfg.injection_modes
    for i in range(cfg.layers):
        _add_block_params(params, f"dec.{i}", cfg, rng, dtype, with_psa=psa)
    params.add("dec.final_norm.g", _ones(d, dtype))
    params.add("dec.final_norm.b", _zeros(d, dtype))

    for i in range(cfg.encoder_layers):
        _add_block_params(params, f"enc.{i}", cfg, rng, dtype, with_psa=False)
        for suffix in ("ln1.g", "ln1.b", "attn.wq", "attn.bq", "attn.wk",
                       "attn.wv", "attn.bv", "attn.wo", "attn.bo",
                       "ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"):
            params[f"enc.{i}.{suffix}"].data[...] = params[f"dec.{i}.{suffix}"].data
    params.add("enc.final_norm.g", _ones(d, dtype))
    params.add("enc.final_norm.b", _zeros(d, dtype))

    params.add("pool.q", _normal(rng, (d,), INIT_STD, dtype))
    for name in ("wk", "wv", "wo"):
        params.add(f"pool.{name}", _normal(rng, (d, d), INIT_STD, dtype))
    for name in ("bv", "bo"):
        params.add(f"pool.{name}", _zeros(d, dtype))

    # Mean heads and injection projections can be initialized louder than the
    # 0.02 base: at desk scale the latent pathway must compete with literal
    # prefix attention from the first step, or the decoder never adopts it.
    head_std = INIT_STD * cfg.latent_head_gain
    inject_std = INIT_STD * cfg.injection_gain
    for role in ("prior", "post"):
        params.add(f"{role}.mu.w", _normal(rng, (d, dp), head_std, dtype))
        params.add(f"{role}.mu.b", _zeros(dp, dtype))
        params.add(f"{role}.ls.w", _normal(rng, (d, dp), INIT_STD, dtype))
        params.add(f"{role}.ls.b", _zeros(dp, dtype))

    if "input" in cfg.injection_modes:
        params.add("inject.input.w", _normal(rng, (dp, d), inject_std, dtype))
    if psa:
        params.add("inject.psa.w", _normal(rng, (dp, cfg.layers * d), inject_std, dtype))
    if "softmax" in cfg.injection_modes:
        params.add("inject.softmax.w", _normal(rng, (dp, cfg.vocab_size), inject_std, dtype))
    return params


def attention_params(params: ParameterSet, prefix: str) -> AttentionParams:
    psa = f"{prefix}.psa.wk" in params
    return AttentionParams(
        wq=params[f"{prefix}.attn.wq"], bq=params[f"{prefix}.attn.bq"],
        wk=params[f"{prefix}.attn.wk"],
        wv=params[f"{prefix}.attn.wv"], bv=params[f"{prefix}.attn.bv"],
        wo=params[f"{prefix}.attn.wo"], bo=params[f"{prefix}.attn.bo"],
        psa_wk=params[f"{prefix}.psa.wk"] if psa else None,
        psa_bk=params[f"{prefix}.psa.bk"] if psa else None,
        psa_wv=params[f"{prefix}.psa.wv"] if psa else None,
        psa_bv=params[f"{prefix}.psa.bv"] if psa else None,
    )


def pooling_params(params: ParameterSet) -> PoolingParams:
    return PoolingParams(
        q=params["pool.q"],
        wk=params["pool.wk"],
        wv=params["pool.wv"], bv=params["pool.bv"],
        wo=params["pool.wo"], bo=params["pool.bo"],
    )


def _attend(q, k, v, n_heads, mask, return_weights):
    """All heads at once: (T, d) rows become (H, T, d/H) stacks for one batched product.

    ``mask`` broadcasts to the (H, queries, keys) scores.  Returns the
    (queries, d) output with heads back side by side, and one weight
    matrix per head when asked.
    """
    lq, d = q.shape
    lk = k.shape[0]
    dh = d // n_heads
    qh = ag.transpose(ag.reshape(q, (lq, n_heads, dh)), axes=(1, 0, 2))
    kt = ag.transpose(ag.reshape(k, (lk, n_heads, dh)), axes=(1, 2, 0))
    vh = ag.transpose(ag.reshape(v, (lk, n_heads, dh)), axes=(1, 0, 2))
    scores = ag.mul_scalar(ag.matmul(qh, kt), 1.0 / math.sqrt(dh))
    attn = ag.softmax(scores, mask=mask)
    out = ag.reshape(ag.transpose(ag.matmul(attn, vh), axes=(1, 0, 2)), (lq, d))
    return out, list(attn.data.copy()) if return_weights else []


def multi_head_attention(
    x: Tensor,
    p: AttentionParams,
    n_heads: int,
    causal: bool,
    max_seq_len: int | None = None,
    z_slice: Tensor | None = None,
    suppress_latent: bool = False,
    return_weights: bool = False,
):
    """Scaled dot-product attention over a full sequence, per-head scale 1/sqrt(d/H).

    ``z_slice`` is one (1, d) per-layer latent row for pseudo
    self-attention: when given (and nonzero), its key and value
    projections are prefixed to the key and value matrices, queries stay
    token-only, and the causal mask never blocks that row.
    ``suppress_latent`` is the test hook that forces the latent row's
    attention score to -inf, recovering plain attention.
    """
    l, d = x.shape
    if l < 1:
        raise ContractError("attention needs at least one position")
    if max_seq_len is not None and l > max_seq_len:
        raise ContractError(f"sequence of {l} positions exceeds the maximum {max_seq_len}")
    q = ag.add(ag.matmul(x, p.wq), p.bq)
    k = ag.matmul(x, p.wk)
    v = ag.add(ag.matmul(x, p.wv), p.bv)

    n_prefix = 0
    if z_slice is not None and z_slice.shape != (1, d):
        raise ag.ShapeError(f"latent slice shape {z_slice.shape} does not match one row of model width {d}")
    # An exactly-zero slice injects nothing; zeroed projections then leave
    # the latent-free path bit-identical.
    if z_slice is not None and bool(np.any(z_slice.data != 0.0)):
        if not p.has_psa:
            raise ContractError("latent slice given but this layer has no latent key/value projections")
        k = ag.concat_rows([ag.add(ag.matmul(z_slice, p.psa_wk), p.psa_bk), k])
        v = ag.concat_rows([ag.add(ag.matmul(z_slice, p.psa_wv), p.psa_bv), v])
        n_prefix = 1

    mask = None
    if causal or (n_prefix and suppress_latent):
        mask = np.ones((l, l + n_prefix), dtype=bool)
        if causal:
            mask[:, n_prefix:] = np.tri(l, dtype=bool)
        if suppress_latent:
            mask[:, :n_prefix] = False

    out, weights = _attend(q, k, v, n_heads, mask, return_weights)
    out = ag.add(ag.matmul(out, p.wo), p.bo)
    if return_weights:
        return out, weights
    return out


def attention_average(
    hseq: Tensor,
    p: PoolingParams,
    n_heads: int,
    valid: np.ndarray | None = None,
    return_weights: bool = False,
):
    """Pool a variable-length sequence into one vector with a learnable query.

    ``valid`` optionally marks real rows; padding rows are masked out of the
    softmax so they receive exactly zero attention.
    """
    l, d = hseq.shape
    if l < 1:
        raise ContractError("cannot pool an empty sequence")
    k = ag.matmul(hseq, p.wk)
    v = ag.add(ag.matmul(hseq, p.wv), p.bv)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (l,):
            raise ag.ShapeError(f"valid mask shape {valid.shape} does not match sequence length {l}")
        if not valid.any():
            raise ContractError("cannot pool a fully masked sequence")
    out, weights = _attend(ag.reshape(p.q, (1, d)), k, v, n_heads, valid, return_weights)
    pooled = ag.reshape(ag.add(ag.matmul(out, p.wo), p.bo), (d,))
    if return_weights:
        return pooled, weights
    return pooled


def _block(x, params, prefix, cfg, causal, z_slice, drop_rng):
    p = attention_params(params, prefix)
    h = ag.layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"], LN_EPS)
    attn_out = multi_head_attention(h, p, cfg.heads, causal, max_seq_len=cfg.max_seq_len, z_slice=z_slice)
    if drop_rng is not None:
        attn_out = ag.dropout(attn_out, cfg.dropout, drop_rng)
    x = ag.add(x, attn_out)
    h = ag.layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"], LN_EPS)
    h = ag.add(ag.matmul(h, params[f"{prefix}.mlp.w1"]), params[f"{prefix}.mlp.b1"])
    h = ag.gelu(h)
    h = ag.add(ag.matmul(h, params[f"{prefix}.mlp.w2"]), params[f"{prefix}.mlp.b2"])
    if drop_rng is not None:
        h = ag.dropout(h, cfg.dropout, drop_rng)
    return ag.add(x, h)


def _validate_tokens(tokens: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size < 1:
        raise ContractError(f"tokens must be a nonempty 1-D sequence, got shape {tokens.shape}")
    if tokens.size > cfg.max_seq_len:
        raise ContractError(f"sequence of {tokens.size} tokens exceeds max_seq_len {cfg.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
        raise IndexError(f"token id out of range for vocabulary size {cfg.vocab_size}")
    return tokens


def stack_forward(
    tokens,
    params: ParameterSet,
    cfg: ModelConfig,
    role: str,
    latent=None,
    modes: tuple[str, ...] = (),
    drop_rng: np.random.Generator | None = None,
):
    """Run the encoder or decoder stack.

    Returns the final hidden states for the encoder, and (hidden, logits)
    for the decoder.  ``modes`` selects which injection routes consume the
    latent; the decoder requires a latent whenever any mode is active.
    """
    if role not in ("encoder", "decoder"):
        raise ContractError(f"unknown stack role: {role}")
    modes = tuple(modes)
    for m in modes:
        if m not in INJECTION_MODES:
            raise ContractError(f"unknown injection mode: {m}")
    tokens = _validate_tokens(tokens, cfg)
    is_decoder = role == "decoder"
    if is_decoder and modes and latent is None:
        raise ContractError("decoder with injection modes enabled needs a latent code")

    word = params["embed.word"]
    x = ag.add(ag.take_rows(word, tokens), ag.take_rows(params["embed.pos"], np.arange(tokens.size)))

    z_slices: list[Tensor | None] = [None] * cfg.layers
    if is_decoder and modes:
        if latent.width != cfg.latent_dim:
            raise ContractError(f"latent width {latent.width} does not match configured {cfg.latent_dim}")
        if "input" in modes:
            x = ag.add(x, ag.matmul(latent.z, params["inject.input.w"]))
        if "psa" in modes:
            rows = ag.reshape(ag.matmul(latent.z, params["inject.psa.w"]), (cfg.layers, cfg.d))
            z_slices = [ag.take_rows(rows, [i]) for i in range(cfg.layers)]

    n_layers = cfg.layers if is_decoder else cfg.encoder_layers
    stack = "dec" if is_decoder else "enc"
    drop = drop_rng if cfg.dropout > 0.0 else None
    for i in range(n_layers):
        x = _block(
            x, params, f"{stack}.{i}", cfg,
            causal=is_decoder, z_slice=z_slices[i] if is_decoder else None, drop_rng=drop,
        )
    x = ag.layer_norm(x, params[f"{stack}.final_norm.g"], params[f"{stack}.final_norm.b"], LN_EPS)
    if not is_decoder:
        return x

    logits = ag.matmul(x, ag.transpose(word))
    if modes and "softmax" in modes:
        logits = ag.add(logits, ag.matmul(latent.z, params["inject.softmax.w"]))
    return x, logits
