"""Tests for the shuffle-invariant transformer classifier."""

import dataclasses

import numpy as np
import pytest

from picrypt import pevit
from picrypt.errors import ConfigError, ShapeError
from picrypt.harness import Adam
from picrypt.pevit import (
    MAX_MODEL_FLOATS,
    MAX_MODEL_TENSORS,
    ModelConfig,
    build_tokens,
    encode,
    encoder_block,
    forward,
    init_params,
    loss_fn,
    msa,
    predict,
    rpe,
)
from picrypt.tensor import (
    Tensor,
    backward,
    cross_entropy,
    first_row,
    grad_check,
    matmul,
    scale,
    zero_grads,
)
from tape_oracles import full_rows_forward, per_head_msa, softmax_rows
from tape_oracles import transpose_last_two as transpose

CFG = ModelConfig(patch_dim=12, dim=16, depth=2, heads=2, ffn_dim=32,
                  n_classes=4)


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def rand_patches(rng, n=6, dim=CFG.patch_dim):
    return rng.random((n, dim))


def export_attention(params, cfg, patches):
    """Attention weights, one list of (N+1, N+1) arrays per block."""
    trace = {}
    encode(params, cfg, patches, trace=trace)
    return trace["attn"]


def attention(q, k, v):
    """softmax(q k^T / sqrt(dk)) v for one head, in plain numpy: the oracle
    for msa's per-head loop."""
    scores = q @ k.T / np.sqrt(q.shape[1])
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v


# ---------------------------------------------------------------- config


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        ModelConfig(patch_dim=12, dim=10, heads=3)


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ConfigError):
        ModelConfig(patch_dim=0)
    with pytest.raises(ConfigError):
        ModelConfig(patch_dim=12, depth=0)


@pytest.mark.parametrize("field,value", [
    ("heads", 0), ("heads", -2), ("rpe_hidden", 0), ("rpe_hidden", -1),
])
def test_config_rejects_zero_heads_and_rpe_hidden(field, value):
    # heads is range-checked before dim % heads, so 0 is a ConfigError,
    # not a ZeroDivisionError
    with pytest.raises(ConfigError, match=field):
        ModelConfig(patch_dim=12, rpe=True, **{field: value})


def test_config_rejects_negative_positions():
    assert ModelConfig(patch_dim=12, positions=0).positions == 0
    with pytest.raises(ConfigError, match="positions must be >= 0"):
        ModelConfig(patch_dim=12, positions=-1)


@pytest.mark.parametrize("rpe", [False, True])
def test_config_weight_count_covers_init_params(rpe):
    for cfg in (ModelConfig(patch_dim=768, rpe=rpe),
                ModelConfig(patch_dim=5, dim=6, depth=3, heads=3, ffn_dim=7,
                            n_classes=9, rpe=rpe, rpe_hidden=2),
                ModelConfig(patch_dim=5, dim=6, depth=3, heads=3, ffn_dim=7,
                            n_classes=9, rpe=rpe, rpe_hidden=2, positions=11)):
        assert cfg.n_weights == sum(p.data.size for p in init_params(cfg).values())
        assert cfg.n_tensors == len(init_params(cfg))


def test_config_rejects_weights_above_bound():
    assert ModelConfig(patch_dim=768).n_weights == 248_842  # the criterion-6 model
    with pytest.raises(ConfigError, match="MAX_MODEL_FLOATS"):
        ModelConfig(patch_dim=768, dim=4_000_000, heads=1)
    with pytest.raises(ConfigError, match="MAX_MODEL_FLOATS"):
        ModelConfig(patch_dim=1, dim=1, heads=1, ffn_dim=1, depth=MAX_MODEL_FLOATS)


def test_config_rejects_tensors_above_bound():
    # one-float layers: MAX_MODEL_FLOATS alone admits about 2.8 M of them
    assert ModelConfig(patch_dim=768).n_tensors == 89  # the criterion-6 model
    deep = dict(patch_dim=1, dim=1, heads=1, ffn_dim=1, n_classes=1)
    ModelConfig(**deep, depth=(MAX_MODEL_TENSORS - 5) // 12)
    with pytest.raises(ConfigError, match="MAX_MODEL_TENSORS"):
        ModelConfig(**deep, depth=(MAX_MODEL_TENSORS - 5) // 12 + 1)


def test_init_params_names_and_shapes():
    p = init_params(CFG, seed=0)
    assert p["embed.w"].shape == (12, 16)
    assert p["cls"].shape == (1, 16)
    assert p["head.w"].shape == (16, 4)
    assert p["layer0.attn.h0.wq"].shape == (16, 8)
    assert p["layer1.ffn.w1"].shape == (16, 32)
    assert np.all(p["layer0.ln1.gamma"].data == 1.0)
    assert np.all(p["layer0.ffn.b1"].data == 0.0)
    assert "rpe.ref" not in p

    pr = init_params(ModelConfig(patch_dim=12, dim=16, heads=2, rpe=True,
                                 rpe_hidden=8), seed=0)
    assert pr["rpe.ref"].shape == (1, 12)
    assert pr["rpe.w1"].shape == (12, 8)
    assert pr["rpe.w2"].shape == (8, 16)


def test_init_params_deterministic():
    a = init_params(CFG, seed=5)
    b = init_params(CFG, seed=5)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)


# ---------------------------------------------------------------- attention


def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((4, 3))
    k = rng.standard_normal((1, 3))
    v = rng.standard_normal((1, 3))
    out = attention(q, k, v)
    for row in out:
        assert np.max(np.abs(row - v[0])) < 1e-15


def test_attention_zero_logits_average_values():
    rng = np.random.default_rng(1)
    q = np.zeros((3, 4))
    k = rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 4))
    out = attention(q, k, v)
    want = v.mean(axis=0)
    for row in out:
        assert np.max(np.abs(row - want)) < 1e-12


def test_attention_matches_formula_oracle():
    # the tape ops msa composes per head agree with the numpy oracle
    rng = np.random.default_rng(2)
    q = rng.standard_normal((3, 2))
    k = rng.standard_normal((3, 2))
    v = rng.standard_normal((3, 2))
    scores = scale(matmul(t(q), transpose(t(k))), 1.0 / np.sqrt(2))
    got = matmul(softmax_rows(scores), t(v)).data
    assert np.max(np.abs(got - attention(q, k, v))) < 1e-12


def test_msa_one_head_is_attention_with_projection():
    rng = np.random.default_rng(3)
    cfg = ModelConfig(patch_dim=12, dim=8, depth=1, heads=1, ffn_dim=16)
    p = init_params(cfg, seed=1)
    z = t(rng.standard_normal((5, 8)))
    got = msa(p, "layer0.attn", z, heads=1).data
    q = z.data @ p["layer0.attn.h0.wq"].data
    k = z.data @ p["layer0.attn.h0.wk"].data
    v = z.data @ p["layer0.attn.h0.wv"].data
    want = attention(q, k, v) @ p["layer0.attn.wo"].data
    assert np.max(np.abs(got - want)) < 1e-12


def test_msa_zero_input_gives_zero_output():
    p = init_params(CFG, seed=2)
    out = msa(p, "layer0.attn", t(np.zeros((4, 16))), heads=2).data
    assert np.max(np.abs(out)) < 1e-15


def test_msa_permutation_equivariant():
    rng = np.random.default_rng(4)
    p = init_params(CFG, seed=3)
    z = rng.standard_normal((7, 16))
    perm = rng.permutation(7)
    a = msa(p, "layer0.attn", t(z[perm]), heads=2).data
    b = msa(p, "layer0.attn", t(z), heads=2).data[perm]
    assert np.max(np.abs(a - b)) < 1e-9


def same_bits(a, b):
    """Equal dtype, shape and bytes: unlike np.array_equal, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def msa_run(attn, heads, n, dim, seed, class_row=False):
    """Output, trace, and z and weight gradients of ``attn`` over one layer's
    attention, with weights scaled up so the softmax is far from uniform.
    With ``class_row`` the loss reads only the output's first row, as the
    last block's does, so the upstream gradient has exact zero rows."""
    cfg = ModelConfig(patch_dim=4, dim=dim, depth=1, heads=heads, ffn_dim=4)
    p = {name: Tensor(w.data * 40.0) for name, w in init_params(cfg, seed=seed).items()
         if name.startswith("layer0.attn.")}
    rng = np.random.default_rng(seed)
    z = t(rng.standard_normal((n, dim)))
    trace = []
    out = attn(p, "layer0.attn", z, heads, trace=trace)
    rows = first_row(out) if class_row else matmul(t(rng.standard_normal((1, n))), out)
    backward(matmul(rows, t(rng.standard_normal((dim, 1)))))
    return out.data, trace, z.grad, {name: w.grad for name, w in p.items()}


def assert_msa_matches_oracle(heads, n, dim, class_row=False):
    out, trace, g_z, grads = msa_run(msa, heads, n, dim, heads * n + dim, class_row)
    want_out, want_trace, want_g_z, want_grads = msa_run(per_head_msa, heads, n, dim,
                                                         heads * n + dim, class_row)
    assert same_bits(out, want_out)
    assert len(trace) == len(want_trace) == heads
    assert all(same_bits(a, b) for a, b in zip(trace, want_trace))
    assert same_bits(g_z, want_g_z)
    assert set(grads) == set(want_grads)
    for name, g in grads.items():
        assert same_bits(g, want_grads[name]), name


@pytest.mark.parametrize("dim", [8, 64])
@pytest.mark.parametrize("n", [2, 5, 17])
@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_msa_matches_per_head_oracle_bit_for_bit(heads, n, dim):
    assert_msa_matches_oracle(heads, n, dim)


@pytest.mark.parametrize("dim", [8, 64])
@pytest.mark.parametrize("n", [2, 5, 17])
@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_msa_matches_per_head_oracle_through_the_class_row(heads, n, dim):
    assert_msa_matches_oracle(heads, n, dim, class_row=True)


@pytest.mark.parametrize("extra", [{"rpe": True, "rpe_hidden": 8}, {"positions": 10}])
def test_model_with_fused_msa_matches_per_head_oracle(monkeypatch, extra):
    # loss, encoder trace, every gradient and one Adam step over the flat
    # buffers, on an rpe model and on a positional one
    cfg = ModelConfig(patch_dim=12, dim=16, depth=2, heads=4, ffn_dim=32, n_classes=4,
                      **extra)
    x = np.random.default_rng(19).random((9, 12))

    def run():
        p = init_params(cfg, seed=19)
        opt = Adam(p)
        trace = {}
        encode(p, cfg, x, trace=trace)
        loss = loss_fn(p, cfg, x, 3)
        backward(loss)
        grads = {name: w.grad.copy() for name, w in p.items()}
        opt.step()
        return loss.data, trace, grads, opt.data

    fused = run()
    monkeypatch.setattr(pevit, "msa", per_head_msa)
    loss, trace, grads, stepped = run()
    assert same_bits(fused[0], loss)
    for key in ("tokens", "attn"):
        assert same_bits(np.array(fused[1][key]), np.array(trace[key])), key
    for name, g in grads.items():
        assert same_bits(fused[2][name], g), name
    assert same_bits(fused[3], stepped)


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_msa_adds_two_tape_nodes(heads):
    # the fused attention node and the wo matmul, whatever the head count
    cfg = ModelConfig(patch_dim=4, dim=8, depth=1, heads=heads, ffn_dim=4)
    p = init_params(cfg, seed=20)
    z = t(np.random.default_rng(20).standard_normal((5, 8)))
    leaves = {id(w) for w in p.values()} | {id(z)}
    seen, stack = set(), [msa(p, "layer0.attn", z, heads)]
    while stack:
        node = stack.pop()
        if id(node) not in leaves and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) == 2


# ---------------------------------------------------------------- blocks


def test_encoder_block_identity_with_zero_weights():
    p = init_params(CFG, seed=4)
    for name, tens in p.items():
        if name.startswith("layer0") and "gamma" not in name:
            tens.data[...] = 0.0
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 16))
    out = encoder_block(p, "layer0", t(z), heads=2).data
    assert np.max(np.abs(out - z)) < 1e-15


def test_encoder_block_gradients():
    cfg = ModelConfig(patch_dim=6, dim=8, depth=1, heads=2, ffn_dim=12,
                      n_classes=3)
    p = init_params(cfg, seed=6)
    rng = np.random.default_rng(6)
    z = rng.standard_normal((4, 8))
    block = {k: v for k, v in p.items() if k.startswith("layer0")}

    def f(params):
        out = encoder_block(params, "layer0", t(z), heads=2)
        n = out.data.shape[0]
        rows = Tensor(np.full((1, n), 1.0 / n))
        cols = Tensor(np.full((out.data.shape[1], 1), 1.0 / out.data.shape[1]))
        return matmul(matmul(rows, out), cols)  # mean of every entry

    rep = grad_check(f, block, tolerance=1e-4, max_entries=200, seed=0)
    assert rep.passed, f"block grad error {rep.max_rel_error:.2e} at {rep.param}"


@pytest.mark.parametrize("variant", ["plain", "rpe", "positions"])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("depth,ffn_dim", [(1, 5), (4, 16)])
def test_forward_matches_full_rows_oracle(depth, ffn_dim, heads, variant):
    # the class-row FFN keeps the logits and every parameter gradient,
    # zero signs included, for 1 to 17 tokens (an odd ffn_dim puts row 0
    # and row 1 in one SIMD vector)
    for n in range(17):
        cfg = ModelConfig(patch_dim=6, dim=8, depth=depth, heads=heads,
                          ffn_dim=ffn_dim, n_classes=3, rpe=variant == "rpe", rpe_hidden=4,
                          positions=(n + 1) * (variant == "positions"))
        x = np.random.default_rng(n).random((n, 6))
        runs = []
        for fwd in (forward, full_rows_forward):
            params = init_params(cfg, seed=n)
            logits = fwd(params, cfg, x)
            backward(cross_entropy(logits, n % 3))
            runs.append((logits.data, {k: w.grad for k, w in params.items()}))
        (got, got_grads), (want, want_grads) = runs
        assert same_bits(got, want), n
        assert got_grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert same_bits(got_grads[name], g), (n, name)


def test_forward_matches_full_rows_oracle_at_criterion_6_size():
    cfg = ModelConfig(patch_dim=768, n_classes=10)
    x = np.random.default_rng(30).random((16, 768))
    runs = []
    for fwd in (forward, full_rows_forward):
        params = init_params(cfg, seed=30)
        logits = fwd(params, cfg, x)
        backward(cross_entropy(logits, 7))
        runs.append([logits.data] + [params[k].grad for k in sorted(params)])
    assert all(same_bits(a, b) for a, b in zip(*runs))


def test_only_the_last_block_ffn_skips_rows(monkeypatch):
    # forward's last gelu sees zeros below the class row; every other
    # block's, and encode's by default, sees every row
    seen, gelu = [], pevit.gelu

    def spy(x):
        seen.append(x.data.copy())
        return gelu(x)

    monkeypatch.setattr(pevit, "gelu", spy)
    cfg = ModelConfig(patch_dim=12, dim=16, depth=3, heads=2, ffn_dim=32, n_classes=4)
    p = init_params(cfg, seed=31)
    x = rand_patches(np.random.default_rng(31), n=6)
    forward(p, cfg, x)
    assert len(seen) == 3
    *inner, last = seen
    assert last.shape == (7, 32)
    assert np.all(last[1:] == 0.0) and np.all(last[0] != 0.0)
    assert all(np.all(h != 0.0) for h in inner)
    seen.clear()
    encode(p, cfg, x)
    assert len(seen) == 3 and all(np.all(h != 0.0) for h in seen)


def test_encode_class_row_keeps_row_0_and_moves_the_rest():
    p = init_params(CFG, seed=32)
    x = rand_patches(np.random.default_rng(32), n=5)
    full, cls_only = encode(p, CFG, x).data, encode(p, CFG, x, class_row=True).data
    assert same_bits(full[:1], cls_only[:1])
    assert not np.any(full[1:] == cls_only[1:])


# ---------------------------------------------------------------- rpe


def test_rpe_at_reference_with_zero_weights_is_half():
    cfg = ModelConfig(patch_dim=12, dim=16, heads=2, rpe=True, rpe_hidden=8)
    p = init_params(cfg, seed=7)
    for name in ("rpe.w1", "rpe.w2"):
        p[name].data[...] = 0.0
    x = np.tile(p["rpe.ref"].data, (3, 1))
    out = rpe(p, t(x)).data
    assert np.max(np.abs(out - 0.5)) < 1e-15


def test_rpe_output_in_open_unit_interval():
    cfg = ModelConfig(patch_dim=12, dim=16, heads=2, rpe=True, rpe_hidden=8)
    p = init_params(cfg, seed=8)
    rng = np.random.default_rng(8)
    out = rpe(p, t(rng.standard_normal((10, 12)) * 5)).data
    assert np.all((out > 0) & (out < 1))


def test_rpe_is_rowwise_independent():
    cfg = ModelConfig(patch_dim=12, dim=16, heads=2, rpe=True, rpe_hidden=8)
    p = init_params(cfg, seed=9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 12))
    perm = rng.permutation(6)
    a = rpe(p, t(x[perm])).data
    b = rpe(p, t(x)).data[perm]
    assert np.array_equal(a, b)


def test_zeroed_rpe_matches_no_rpe_with_shifted_bias():
    # rpe with zero weights adds the constant 0.5 row; folding 0.5 into the
    # embedding bias of the plain model reproduces it
    cfg_r = ModelConfig(patch_dim=12, dim=16, depth=2, heads=2, ffn_dim=32,
                        n_classes=4, rpe=True, rpe_hidden=8)
    pr = init_params(cfg_r, seed=10)
    for name in ("rpe.ref", "rpe.w1", "rpe.w2", "rpe.b1", "rpe.b2"):
        pr[name].data[...] = 0.0
    pp = {k: Tensor(v.data.copy()) for k, v in pr.items()
          if not k.startswith("rpe.")}
    pp["embed.b"].data[...] += 0.5
    rng = np.random.default_rng(10)
    x = rng.random((5, 12))
    a = forward(pr, cfg_r, x).data
    b = forward(pp, CFG, x).data
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------- forward


def test_forward_shape_and_single_patch():
    p = init_params(CFG, seed=11)
    rng = np.random.default_rng(11)
    out = forward(p, CFG, rand_patches(rng)).data
    assert out.shape == (1, 4)
    out1 = forward(p, CFG, rand_patches(rng, n=1)).data
    assert out1.shape == (1, 4) and np.all(np.isfinite(out1))


def test_forward_zero_params_zero_logits():
    p = init_params(CFG, seed=12)
    for name, tens in p.items():
        if "gamma" not in name:
            tens.data[...] = 0.0
    rng = np.random.default_rng(12)
    out = forward(p, CFG, rand_patches(rng)).data
    assert np.max(np.abs(out)) < 1e-15


def test_forward_rejects_wrong_patch_dim():
    p = init_params(CFG, seed=13)
    with pytest.raises(ShapeError):
        forward(p, CFG, np.zeros((4, 13)))


def test_positions_must_match_token_count():
    # one pos row would broadcast over all tokens; the count is checked instead
    x = np.random.default_rng(16).random((4, 12))
    for positions in (1, 4, 6):
        cfg = dataclasses.replace(CFG, positions=positions)
        with pytest.raises(ShapeError, match="position rows"):
            forward(init_params(cfg, seed=16), cfg, x)
    cfg = dataclasses.replace(CFG, positions=5)
    assert forward(init_params(cfg, seed=16), cfg, x).data.shape == (1, 4)


def test_pos_is_drawn_apart_and_ignored_without_positions():
    # pos comes from its own stream, so every other weight keeps its bits,
    # and a positions-0 model reads such params as the invariant model
    p = init_params(dataclasses.replace(CFG, positions=10), seed=17)
    p0 = init_params(CFG, seed=17)
    assert set(p) - set(p0) == {"pos"} and p["pos"].shape == (10, 16)
    assert all(np.array_equal(p0[name].data, p[name].data) for name in p0)
    x = np.random.default_rng(17).random((9, 12))
    assert np.array_equal(forward(p, CFG, x).data, forward(p0, CFG, x).data)


def test_forward_shuffle_invariant_quick():
    rng = np.random.default_rng(13)
    for use_rpe in (False, True):
        cfg = ModelConfig(patch_dim=12, dim=16, depth=2, heads=2, ffn_dim=32,
                          n_classes=4, rpe=use_rpe, rpe_hidden=8)
        p = init_params(cfg, seed=14)
        x = rng.random((9, 12))
        base = forward(p, cfg, x).data
        for _ in range(10):
            out = forward(p, cfg, x[rng.permutation(9)]).data
            assert np.max(np.abs(out - base)) < 1e-9


def test_loss_and_predict():
    p = init_params(CFG, seed=15)
    rng = np.random.default_rng(15)
    x = rand_patches(rng)
    loss = loss_fn(p, CFG, x, 2)
    assert loss.data.size == 1 and np.isfinite(loss.data.item())
    assert 0 <= predict(p, CFG, x) < 4


def test_loss_backward_touches_every_param():
    cfg = ModelConfig(patch_dim=6, dim=8, depth=1, heads=2, ffn_dim=12,
                      n_classes=3, rpe=True, rpe_hidden=4)
    p = init_params(cfg, seed=16)
    rng = np.random.default_rng(16)
    zero_grads(p)
    backward(loss_fn(p, cfg, rng.random((4, 6)), 1))
    for name, tens in p.items():
        assert tens.grad is not None, f"{name} got no gradient"


# ---------------------------------------------------------------- attention export


def test_export_attention_shapes_and_row_sums():
    p = init_params(CFG, seed=17)
    rng = np.random.default_rng(17)
    attn = export_attention(p, CFG, rand_patches(rng, n=6))
    assert len(attn) == CFG.depth
    for per_block in attn:
        assert len(per_block) == CFG.heads
        for w in per_block:
            assert w.shape == (7, 7)
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12


def test_export_attention_uniform_for_zero_weights():
    p = init_params(CFG, seed=18)
    for name, tens in p.items():
        if "gamma" not in name:
            tens.data[...] = 0.0
    rng = np.random.default_rng(18)
    attn = export_attention(p, CFG, rand_patches(rng, n=4))
    for per_block in attn:
        for w in per_block:
            assert np.max(np.abs(w - 1.0 / 5)) < 1e-12


@pytest.mark.parametrize("use_rpe", [False, True])
def test_embedding_matmul_has_only_the_weight_as_parent(use_rpe):
    # the patch matrix is a constant of the embedding: no input gradient
    cfg = ModelConfig(patch_dim=12, dim=8, depth=1, heads=2, ffn_dim=16,
                      n_classes=3, rpe=use_rpe)
    params = init_params(cfg, seed=0)
    z = build_tokens(params, cfg, np.random.default_rng(0).random((5, 12)))
    emb = z._parents[1]
    if use_rpe:  # add(add(embedding, bias), rpe features)
        emb = emb._parents[0]
    embedding, bias = emb._parents
    assert bias is params["embed.b"]
    assert embedding._parents == (params["embed.w"],)


def leaves(node):
    """Tensors without parents reachable from node."""
    found, seen, stack = [], set(), [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if not node._parents:
                found.append(node)
    return found


def test_rpe_takes_the_patches_as_a_constant():
    # rpe of an ndarray reaches only rpe.* weights, and an rpe model's
    # loss reaches no leaf but its parameters
    cfg = ModelConfig(patch_dim=12, dim=8, depth=1, heads=2, ffn_dim=16,
                      n_classes=3, rpe=True, rpe_hidden=4)
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(0).random((5, 12))
    rpe_ids = {id(w) for name, w in params.items() if name.startswith("rpe.")}
    out = rpe(params, x)
    assert out.data.tobytes() == rpe(params, t(x)).data.tobytes()
    assert {id(leaf) for leaf in leaves(out)} == rpe_ids
    loss = loss_fn(params, cfg, x, 1)
    backward(loss)
    param_ids = {id(w) for w in params.values()}
    assert [leaf for leaf in leaves(loss) if id(leaf) not in param_ids] == []
