"""Blocked self-attention stacks and the two special attention mechanisms.

The same pre-layer-norm GPT-2 style block serves both stacks, each with
its own forward: the decoder (``decode_stack``) runs all layers with a
causal mask, the encoder (``encode_stack``) runs the first few layers
unmasked (their values are copied from the decoder layers at init and
trained separately).  Word and position embeddings are shared between the
stacks and the word table is tied to the decoder's logit head.

Three latent injection routes exist for the decoder:
  input:   a projected latent vector is added to every input embedding,
  psa:     the latent is split per layer and prefixed as one extra
           key/value row inside each attention (queries stay token-only),
  softmax: a shared head projects the latent to a logit vector that is
           added to the pre-softmax logits at every position.
An exactly-all-zero per-layer latent row injects nothing, so zeroed
injection projections leave the latent-free forward bit-identical.

A block is two tape nodes, its attention sublayer
(``ag.attention_sublayer``) and its MLP sublayer (``ag.mlp_sublayer``),
each with its layer norm and residual.  A stack's input rows are one
``ag.embedding`` node, word plus position rows plus the ``input`` row,
and the decoder's logits one ``ag.tied_head`` node: the final layer
norm, the product with the transposed word table and the ``softmax``
bias.  The encoder's final norm, its pooling and a Gaussian head are
one ``ag.pool_gaussian`` node, and a decoder's injection rows one
``ag.inject`` node.  Block tensors are looked up once per parameter
layout.  Every attention
writes its keys and values into per-head stacks, views of one block of
keys and one of values per forward (``kv_blocks``), and attends over
them.  The decoder forward runs over a ``DecoderCache``,
its only way in: the latent's injection rows, computed once, each
layer's stacks, and one ``length``, the token positions consumed so far.
A layer's latent key/value row is the first row of its stacks, and the
cache's capacity is the length limit.  A full-prefix decode builds a
fresh cache of its T positions and feeds every token; incremental
decoding keeps one cache per story and feeds only the new tokens, which
attend over views of the stacks without copying an earlier row.  A tape
spans one call through a cache (a train step decodes its whole prefix in
one call): cached rows are constants.

A leading batch axis runs through the same forward: (B, T) tokens, a
(B, d') latent batch, and stacks with a leading B axis.  Inference
batches hold equal-length sequences, which ``length_groups`` splits a
corpus into; batch entries are never folded into one product, so each
gets the bits it gets alone.  Training batches are right-padded
(``pad_rows``): the encoder's attentions and pooling take a per-row key
mask, and the causal decoder needs none, since no real position comes
after a pad one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import ParameterSet, Tensor

INJECTION_MODES = ("input", "psa", "softmax")

INIT_STD = 0.02
POS_INIT_STD = 0.01
# The most sequences one batched forward carries; it bounds the (B, T, vocab) logits and the caches.
GROUP_ROWS = 32
# The encoder's final norm and the pooling tensors, in ``ag.pool_gaussian``'s order.
POOL_NAMES = ("enc.final_norm.g", "enc.final_norm.b", "pool.q", "pool.wk", "pool.wv", "pool.bv", "pool.wo", "pool.bo")


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
    injection_gain: float = 1.0
    latent_head_gain: float = 1.0

    def __post_init__(self):
        sizes = {"d": self.d, "layers": self.layers, "heads": self.heads, "latent_dim": self.latent_dim}
        small = {name: n for name, n in sizes.items() if n < 1}
        if small:
            raise ContractError(f"model sizes must be at least 1, got {small}")
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
        for name in ("injection_gain", "latent_head_gain"):
            gain = getattr(self, name)
            if not (math.isfinite(gain) and gain > 0.0):
                raise ContractError(f"{name} must be positive and finite, got {gain}")

    def to_dict(self) -> dict:
        """The fields by name, ``injection_modes`` as a list: the manifest's ``model`` object."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "injection_modes": list(self.injection_modes)}

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        """Inverse of ``to_dict``; anything but exactly its keys and JSON types raises ``ContractError``."""
        if not isinstance(d, dict):
            raise ContractError(f"model config must be an object, got {type(d).__name__}")
        kinds = {f.name: type(f.default) for f in fields(cls)}
        if d.keys() != kinds.keys():
            raise ContractError(
                f"model config keys: missing {sorted(kinds.keys() - d.keys())}, unknown {sorted(d.keys() - kinds.keys())}"
            )
        for key, value in d.items():
            kind = kinds[key]
            if kind is tuple:
                ok = isinstance(value, list) and all(isinstance(m, str) for m in value)
            else:
                ok = isinstance(value, (int, float) if kind is float else int) and not isinstance(value, bool)
            if not ok:
                raise ContractError(f"model config {key} has the wrong JSON type: {value!r}")
        return cls(**{**d, "injection_modes": tuple(d["injection_modes"])})


@dataclass
class AttentionParams:
    """One attention sublayer's tensors: the layer norm before it, its products and the optional latent projections."""

    ln_g: Tensor
    ln_b: Tensor
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


@dataclass(frozen=True)
class BlockParams:
    """One block's tensors: its attention sublayer, and its MLP sublayer's in ``ag.mlp_sublayer``'s order."""

    attn: AttentionParams
    mlp: tuple[Tensor, ...]  # ln2 gain and bias, w1, b1, w2, b2


def _block_specs(prefix: str, d: int, with_psa: bool) -> list:
    specs = [(f"{prefix}.ln1.g", (d,), "ones"), (f"{prefix}.ln1.b", (d,), "zeros")]
    specs += [(f"{prefix}.attn.{name}", (d, d), INIT_STD) for name in ("wq", "wk", "wv", "wo")]
    # No key bias: a bias shared by every key cancels inside the softmax.
    specs += [(f"{prefix}.attn.{name}", (d,), "zeros") for name in ("bq", "bv", "bo")]
    if with_psa:
        specs += [(f"{prefix}.psa.wk", (d, d), INIT_STD), (f"{prefix}.psa.bk", (d,), "zeros"),
                  (f"{prefix}.psa.wv", (d, d), INIT_STD), (f"{prefix}.psa.bv", (d,), "zeros")]
    return specs + [
        (f"{prefix}.ln2.g", (d,), "ones"), (f"{prefix}.ln2.b", (d,), "zeros"),
        (f"{prefix}.mlp.w1", (d, 4 * d), INIT_STD), (f"{prefix}.mlp.b1", (4 * d,), "zeros"),
        (f"{prefix}.mlp.w2", (4 * d, d), INIT_STD), (f"{prefix}.mlp.b2", (d,), "zeros"),
    ]


def parameter_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], float | str]]:
    """Every trainable tensor's (name, shape, init), in the order ``init_parameters`` creates them.

    ``init`` is ``"ones"``, ``"zeros"``, or the standard deviation of a
    normal draw.  Injection projections exist only for the configured
    modes.  A checkpoint's ``params.bin`` holds these records in this
    order, and is read against them, so loading one draws nothing.
    """
    d, dp = cfg.d, cfg.latent_dim
    psa = "psa" in cfg.injection_modes
    specs = [("embed.word", (cfg.vocab_size, d), INIT_STD), ("embed.pos", (cfg.max_seq_len, d), POS_INIT_STD)]
    for i in range(cfg.layers):
        specs += _block_specs(f"dec.{i}", d, with_psa=psa)
    specs += [("dec.final_norm.g", (d,), "ones"), ("dec.final_norm.b", (d,), "zeros")]
    for i in range(cfg.encoder_layers):
        specs += _block_specs(f"enc.{i}", d, with_psa=False)
    specs += [("enc.final_norm.g", (d,), "ones"), ("enc.final_norm.b", (d,), "zeros")]
    specs += [("pool.q", (d,), INIT_STD)] + [(f"pool.{name}", (d, d), INIT_STD) for name in ("wk", "wv", "wo")]
    specs += [(f"pool.{name}", (d,), "zeros") for name in ("bv", "bo")]

    # Mean heads and injection projections can be initialized louder than the
    # 0.02 base: at desk scale the latent pathway must compete with literal
    # prefix attention from the first step, or the decoder never adopts it.
    head_std = INIT_STD * cfg.latent_head_gain
    inject_std = INIT_STD * cfg.injection_gain
    for role in ("prior", "post"):
        specs += [(f"{role}.mu.w", (d, dp), head_std), (f"{role}.mu.b", (dp,), "zeros"),
                  (f"{role}.ls.w", (d, dp), INIT_STD), (f"{role}.ls.b", (dp,), "zeros")]
    widths = {"input": d, "psa": cfg.layers * d, "softmax": cfg.vocab_size}
    specs += [(f"inject.{mode}.w", (dp, widths[mode]), inject_std)
              for mode in INJECTION_MODES if mode in cfg.injection_modes]
    return specs


def parameter_count(cfg: ModelConfig) -> tuple[int, int]:
    """The number of tensors and of elements that ``parameter_specs(cfg)`` lists, in closed form, so any config is cheap."""
    d, dp, psa, modes = cfg.d, cfg.latent_dim, "psa" in cfg.injection_modes, cfg.injection_modes
    block = 12 * d * d + 12 * d  # two layer norms, four (d, d) and two (d, 4d) products, and their biases
    tensors = 2 + cfg.layers * (15 + 4 * psa) + cfg.encoder_layers * 15 + 2 + 2 + 6 + 8 + len(modes)
    elements = (cfg.vocab_size + cfg.max_seq_len) * d + cfg.layers * (block + psa * (2 * d * d + 2 * d)) \
        + cfg.encoder_layers * block + 4 * d + (3 * d * d + 3 * d) + 4 * (d * dp + dp) \
        + dp * (d * ("input" in modes) + cfg.layers * d * psa + cfg.vocab_size * ("softmax" in modes))
    return tensors, elements


def init_parameters(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> ParameterSet:
    """Build all trainable tensors, laid out and drawn in ``parameter_specs`` order.

    Encoder blocks start as value copies of the first encoder_layers
    decoder blocks (copied, not shared, so they train apart afterwards).
    A config whose parameter count cannot be allocated as one buffer
    raises ``ContractError`` before any tensor is listed or drawn.
    """
    elements = parameter_count(cfg)[1]
    try:
        ag.flat_buffer(elements, dtype)
    except (OverflowError, OSError) as e:
        raise ContractError(f"the model's {elements} parameter values cannot be allocated: {e}") from None
    arrays = []
    for name, shape, init in parameter_specs(cfg):
        if init == "ones":
            data = np.ones(shape, dtype=dtype)
        elif init == "zeros":
            data = np.zeros(shape, dtype=dtype)
        else:
            data = (rng.standard_normal(shape) * init).astype(dtype)
        arrays.append((name, data))
    params = ParameterSet(arrays, dtype=dtype)
    for name in params.names():
        if name.startswith("enc.") and not name.startswith("enc.final_norm."):
            params[name].data[...] = params["dec." + name[len("enc."):]].data
    return params


def attention_params(params: ParameterSet, prefix: str) -> AttentionParams:
    psa = f"{prefix}.psa.wk" in params
    return AttentionParams(
        ln_g=params[f"{prefix}.ln1.g"], ln_b=params[f"{prefix}.ln1.b"],
        wq=params[f"{prefix}.attn.wq"], bq=params[f"{prefix}.attn.bq"],
        wk=params[f"{prefix}.attn.wk"],
        wv=params[f"{prefix}.attn.wv"], bv=params[f"{prefix}.attn.bv"],
        wo=params[f"{prefix}.attn.wo"], bo=params[f"{prefix}.attn.bo"],
        psa_wk=params[f"{prefix}.psa.wk"] if psa else None,
        psa_bk=params[f"{prefix}.psa.bk"] if psa else None,
        psa_wv=params[f"{prefix}.psa.wv"] if psa else None,
        psa_bv=params[f"{prefix}.psa.bv"] if psa else None,
    )


def _stack_blocks(params: ParameterSet, stack: str, n_layers: int) -> list[BlockParams]:
    """The tensors of blocks ``<stack>.0`` to ``<stack>.<n_layers - 1>``, looked up once per layout of ``params``."""
    mlp = ("ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")

    def lookup():
        return [BlockParams(attention_params(params, f"{stack}.{i}"),
                            tuple(params[f"{stack}.{i}.{name}"] for name in mlp)) for i in range(n_layers)]

    return params.memo((stack, n_layers), lookup)


def kv_blocks(x: Tensor, n_heads: int, rows: int, latents):
    """Per-head key and value stacks of every layer, with room for ``rows`` rows, as one block of each.

    ``latents`` holds, per layer, None or the (..., 1, d) key and value
    tensors of its pseudo-self-attention latent row, which fill its row 0.
    Layer i's keys sit transposed in ``keys[i]`` (..., H, d/H, rows) and
    its values in ``values[i]`` (..., H, rows, d/H), for the batch and
    width of the (..., l, d) ``x``: the layout ``ag.attention_sublayer``
    writes its rows into and attends over.  The blocks take ``x``'s dtype,
    or the latent rows' when a layer has one.  Every other row is left
    unset (``np.empty``) for the sublayers to write.
    """
    *batch, _, d = x.shape
    present = [kv for kv in latents if kv is not None]
    dtype = present[0][0].dtype if present else x.dtype
    keys = np.empty((len(latents), *batch, n_heads, d // n_heads, rows), dtype=dtype)
    values = np.empty((len(latents), *batch, n_heads, rows, d // n_heads), dtype=dtype)
    split, nb = (*batch, 1, n_heads, d // n_heads), len(batch)
    for keys_t, stack, kv in zip(keys, values, latents):
        if kv is not None:
            keys_t[..., :1] = kv[0].data.reshape(split).transpose(*range(nb), nb + 1, nb + 2, nb)
            stack[..., :1, :] = kv[1].data.reshape(split).swapaxes(-3, -2)
    return keys, values


def kv_stacks(x: Tensor, n_heads: int, rows: int, latent: tuple[Tensor, Tensor] | None = None):
    """One layer's ``kv_blocks``: its ``keys_t`` and ``values`` stacks, after ``latent``'s row if it is not None."""
    keys, values = kv_blocks(x, n_heads, rows, [latent])
    return keys[0], values[0]


def causal_mask(l: int, filled: int) -> np.ndarray | None:
    """The (l, filled + l) mask of ``l`` new rows after ``filled`` earlier ones, or None for a single new row.

    Each new row sees every earlier row, itself and the new rows before
    it; a single new row sees every row, so it needs no mask.
    """
    if l == 1:
        return None
    mask = np.ones((l, filled + l), dtype=bool)
    mask[:, filled:] = np.tri(l, dtype=bool)
    return mask


class DecoderCache:
    """A decoder forward's state for one latent or a batch of them: injection rows, and each layer's keys and values.

    The ``input`` row, the per-layer pseudo-self-attention key/value rows
    (``latent_rows``, None for a layer without one) and the ``softmax``
    bias are computed from the latent here, once, as one ``ag.inject``
    node.  A (B, d') latent batch serves B sequences of equal length: its
    rows go through the injection products as (B, 1, d') rows, each on its
    own, and a single latent as one (1, d') row.  ``modes`` must be among
    the model's ``cfg.injection_modes``.  The cache holds ``positions``
    tokens (``cfg.max_seq_len`` by default), and ``length`` counts those
    consumed so far.  The first call allocates every layer's stacks for
    its batch as one block of keys and one of values (``kv_blocks``), with
    room for a latent row and the ``positions``; ``stacks`` holds each
    layer's (keys_t, values) views.  ``batch``, the leading shape every
    call's tokens must have, is the latent's, or else is fixed when the
    stacks are allocated, so a call that fails before then fixes none.  A
    layer's latent row, if it has one, is row 0, and token position t's
    row follows it.  A cache is bound to
    the parameters, the latent and the modes it was built from: it keeps
    ``cfg``, looks up the word and position tables (``word``, ``pos``),
    every decoder block's tensors (``blocks``) and the final norm's gain
    and bias (``final_norm``) once, and each step reads them from there.
    """

    def __init__(self, params: ParameterSet, cfg: ModelConfig, latent=None, modes: tuple[str, ...] = (),
                 positions: int | None = None):
        modes = tuple(modes)
        if not set(modes) <= set(cfg.injection_modes):
            raise ContractError(f"injection modes {modes} are not all among the model's {cfg.injection_modes}")
        if modes and latent is None:
            raise ContractError("decoder with injection modes enabled needs a latent code")
        positions = cfg.max_seq_len if positions is None else positions
        if not 1 <= positions <= cfg.max_seq_len:
            raise ContractError(f"a decoder cache holds 1 to max_seq_len {cfg.max_seq_len} positions, got {positions}")
        self.cfg, self.positions, self.length = cfg, positions, 0
        self.batch = None if latent is None else latent.z.shape[:-1]
        self.input_row = self.softmax_bias = self.stacks = None
        self.blocks, kv = _stack_blocks(params, "dec", cfg.layers), []
        if modes:
            if latent.width != cfg.latent_dim:
                raise ContractError(f"latent width {latent.width} does not match configured {cfg.latent_dim}")
            psa = [(b.attn.psa_wk, b.attn.psa_bk, b.attn.psa_wv, b.attn.psa_bv) for b in self.blocks if "psa" in modes]
            self.input_row, self.softmax_bias, kv = ag.inject(
                latent.z, *(params[f"inject.{m}.w"] if m in modes else None for m in INJECTION_MODES), psa)
        self.word, self.pos = params["embed.word"], params["embed.pos"]
        self.final_norm = (params["dec.final_norm.g"], params["dec.final_norm.b"])
        self.latent_rows = kv or [None] * cfg.layers


def _validate_tokens(tokens: np.ndarray, cfg: ModelConfig, start: int = 0) -> np.ndarray:
    """``tokens`` as int64, checked for shape and length; ids are checked by the stack's ``ag.embedding``."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim not in (1, 2) or tokens.shape[-1] < 1 or tokens.size < 1:
        raise ContractError(f"tokens must be a nonempty (T,) sequence or (B, T) batch, got shape {tokens.shape}")
    if start + tokens.shape[-1] > cfg.max_seq_len:
        raise ContractError(f"sequence of {start + tokens.shape[-1]} tokens exceeds max_seq_len {cfg.max_seq_len}")
    return tokens


def _embed(word: Tensor, pos: Tensor, tokens: np.ndarray, start: int, row: Tensor | None, cfg: ModelConfig) -> Tensor:
    """A stack's ``ag.embedding`` node; its check of the ids against the word table is the stack's one range check.

    The word table's rows are the vocabulary, so only when that check
    fails are the ids read again, for the stack's own ``IndexError``.
    """
    try:
        return ag.embedding(word, pos, tokens, start, row)
    except IndexError:
        if np.minimum.reduce(tokens, axis=None) < 0 or np.maximum.reduce(tokens, axis=None) >= cfg.vocab_size:
            raise IndexError(f"token id out of range for vocabulary size {cfg.vocab_size}") from None
        raise


def pad_rows(sequences, fill) -> tuple[np.ndarray, np.ndarray]:
    """Nonempty sequences right-padded with ``fill`` into one (B, T) array, and the (B, T) mask of their positions."""
    lengths = np.array([len(seq) for seq in sequences])
    if lengths.size < 1 or lengths.min() < 1:
        raise ContractError("a padded batch needs at least one sequence, and no empty one")
    valid = np.arange(lengths.max()) < lengths[:, None]
    padded = np.full(valid.shape, fill, dtype=np.asarray(sequences[0]).dtype)
    padded[valid] = np.concatenate(sequences)
    return padded, valid


def length_groups(sequences) -> list[np.ndarray]:
    """The indices of ``sequences`` split into batches of equal length, at most ``GROUP_ROWS`` each.

    Groups come in the order their length first appears, and each keeps
    its sequences in order, so a caller that scatters group results back
    by index sees them in input order.
    """
    by_length: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(i)
    return [np.array(ids[k:k + GROUP_ROWS]) for ids in by_length.values() for k in range(0, len(ids), GROUP_ROWS)]


def _block(x: Tensor, block: BlockParams, keys_t, values, filled: int, latent, mask) -> Tensor:
    """One block over the rows ``x``: its attention, writing their keys and values at row ``filled``, then its MLP."""
    p = block.attn
    x = ag.attention_sublayer(x, p.ln_g, p.ln_b, p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo, keys_t, values,
                              filled, latent, mask)
    return ag.mlp_sublayer(x, *block.mlp)


def encode_stack(tokens, params: ParameterSet, cfg: ModelConfig, key_mask: np.ndarray | None = None) -> Tensor:
    """The encoder's last-block rows for (T,) tokens, or a (B, T) batch of sequences, with no causal mask.

    One ``ag.embedding`` node and two per block, each attention over fresh
    stacks of the T rows, all of them one block of keys and one of values
    (``kv_blocks``); the final layer norm belongs to the pooling
    (``ag.pool_gaussian``).  A right-padded batch takes the (B, 1, 1, T)
    ``key_mask`` that is False at padding, so no position attends a pad
    key; pad positions still compute values, which get exactly zero
    gradient from any loss that masks them out.
    """
    tokens = _validate_tokens(tokens, cfg)
    x = _embed(params["embed.word"], params["embed.pos"], tokens, 0, None, cfg)
    keys, values = kv_blocks(x, cfg.heads, tokens.shape[-1], [None] * cfg.encoder_layers)
    for block, keys_t, stack in zip(_stack_blocks(params, "enc", cfg.encoder_layers), keys, values):
        x = _block(x, block, keys_t, stack, 0, None, key_mask)
    return x


def decode_stack(cache: DecoderCache, tokens) -> Tensor:
    """The logits of (T,) tokens, or a (B, T) batch, that continue the tokens ``cache`` has consumed.

    The tokens sit at positions ``cache.length`` onward, and the logits
    cover them alone, with a leading B axis for a batch: one
    ``ag.embedding`` node, two per block and one ``ag.tied_head`` node,
    every tensor read from the cache.  Each attention writes its rows'
    keys and values into its layer's stacks after the layer's 0 or 1
    latent rows and the ``cache.length`` cached ones, and attends over
    them.  The causal mask never blocks an earlier row, so a single new
    row needs no mask, and right padding needs no key mask; the call
    builds one mask, and every layer reads it.

    The call is a sink pass (``ag.sink_pass``): only its logits and each
    attention's scores are checked for NaN and Inf.  Every non-finite
    value of the call reaches one of them, a key or value row the call
    writes included: its scores meet every key row, masked or not, and a
    value row reaches every output row, since 0 * inf is NaN.  A failure
    runs the call again with every node's own check on, which raises that
    node's ``NumericsError``.  The cache's ``length`` advances only once
    the whole call has succeeded; a call that raises leaves it as it was,
    and the next call writes the same rows again.  Earlier calls' rows
    are constants here, so a call whose logits are on the tape raises
    ``ContractError`` if the cache already holds tokens: a tape spans one
    call through a cache.
    """
    start = cache.length
    tokens = _validate_tokens(tokens, cache.cfg, start)
    l = tokens.shape[-1]
    if start + l > cache.positions:
        raise ContractError(f"{start + l} positions exceed the {cache.positions} the decoder cache holds")
    if cache.batch is not None and cache.batch != tokens.shape[:-1]:
        raise ContractError(f"tokens of shape {tokens.shape} do not match a cache for a batch of {cache.batch}")
    logits = _decode(cache, tokens, start)
    cache.length = start + l
    return logits


@ag.sink_pass
def _decode(cache: DecoderCache, tokens: np.ndarray, start: int) -> Tensor:
    """``decode_stack``'s pass: the blocks over ``tokens`` at position ``start``, then the head, its sink."""
    l = tokens.shape[-1]
    x = _embed(cache.word, cache.pos, tokens, start, cache.input_row, cache.cfg)
    if cache.stacks is None:
        cache.batch = tokens.shape[:-1]
        cache.stacks = list(zip(*kv_blocks(x, cache.cfg.heads, 1 + cache.positions, cache.latent_rows)))
    # The mask of a layer with a latent row; one without sees one row fewer, so it reads the mask from column 1.
    mask = causal_mask(l, start + 1)
    for block, (keys_t, values), rows in zip(cache.blocks, cache.stacks, cache.latent_rows):
        filled = start + (rows is not None)
        taped = rows if rows is not None and (rows[0].requires_grad or rows[1].requires_grad) else None
        x = _block(x, block, keys_t, values, filled, taped, None if mask is None else mask[:, start + 1 - filled:])
    if start and x.requires_grad:
        raise ContractError(f"a call on the tape must be the first through its key/value rows, but "
                            f"{start} token rows are cached already and would get no gradient")
    logits = ag.tied_head(x, *cache.final_norm, cache.word, cache.softmax_bias)
    ag.check_sink(logits.data)
    return logits
