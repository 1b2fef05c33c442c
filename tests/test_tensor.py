"""Tests for the autodiff tensor: forward oracles, gradients, checkpoints."""

import ast
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from damaged_files import damaged, load_or_none, saved_bytes
from picrypt.errors import ConfigError, DataError, PicryptError, ShapeError
from picrypt.tensor import (
    CHECKPOINT_MAGIC,
    LAYER_NORM_EPS,
    MAX_CHECKPOINT_RANK,
    Tensor,
    _row_means,
    add,
    attention,
    backward,
    concat_rows,
    cross_entropy,
    first_row,
    first_row_only,
    gelu,
    grad_check,
    layer_norm,
    load_checkpoint,
    matmul,
    save_checkpoint,
    scale,
    sigmoid,
    zero_grads,
)
from picrypt.pevit import ModelConfig, init_params, loss_fn
from tape_oracles import concat_last_axis, dfs_backward, softmax_rows, transpose_last_two


SRC = Path(__file__).resolve().parents[1] / "src" / "picrypt"


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def mean_last_axis(a: Tensor) -> Tensor:
    """Row means (n, 1) as a tape op: the reduction scalar_sum is built on."""
    m = a.data.shape[1]
    out = Tensor(a.data.mean(axis=1, keepdims=True), parents=(a,))
    out._pullback = lambda g: a.accumulate(np.repeat(g, m, axis=1) / m)
    return out


def scalar_sum(x: Tensor) -> Tensor:
    # sum of a 2-D tensor: mean over columns, then over rows, scaled back up
    n, m = x.data.shape
    col = mean_last_axis(x)  # (n, 1)
    row = mean_last_axis(transpose_last_two(col))  # (1, 1)
    return scale(row, float(n * m))


# ---------------------------------------------------------------- forward


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2))
    got = matmul(t(a), t(b)).data
    want = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"2, 3.*4, 2"):
        matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))


def test_matmul_constant_left_operand_gives_the_same_gradient_bits():
    # the constant is not a parent and gets no gradient; w's bits are the same
    rng = np.random.default_rng(5)
    x, w0 = rng.standard_normal((17, 40)), rng.standard_normal((40, 8))
    grads = []
    for a in (x, t(x)):
        w = t(w0)
        out = matmul(a, w)
        backward(scalar_sum(gelu(out)))
        grads.append(w.grad)
        if isinstance(a, Tensor):
            assert out._parents == (a, w) and a.grad is not None
        else:
            assert out._parents == (w,)
    assert grads[0].tobytes() == grads[1].tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 2, 3), (2, 4)])
def test_matmul_constant_shape_error_names_both_shapes(shape):
    pattern = ", ".join(map(str, shape)) + r".*3, 2"
    with pytest.raises(ShapeError, match=pattern):
        matmul(np.zeros(shape), t(np.zeros((3, 2))))


def test_add_same_shape_and_bias_row():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(add(a, b).data, [[11.0, 22.0], [33.0, 44.0]])
    bias = t([[100.0, 200.0]])
    assert np.array_equal(add(a, bias).data, [[101.0, 202.0], [103.0, 204.0]])


def test_add_bias_grad_is_column_sum():
    a = t(np.ones((3, 2)))
    bias = t(np.zeros((1, 2)))
    out = add(a, bias)
    backward(scalar_sum(out))
    assert np.array_equal(bias.grad, [[3.0, 3.0]])
    assert np.array_equal(a.grad, np.ones((3, 2)))


ADD_MISMATCHES = [((3, 2), (3, 1)), ((3, 2), (2,)), ((1, 2), (3, 2))]


@pytest.mark.parametrize("const", [False, True], ids=["tensor", "constant"])
@pytest.mark.parametrize("shapes", ADD_MISMATCHES, ids=lambda s: f"{s[0]}+{s[1]}")
def test_add_shape_error_names_both_shapes(shapes, const):
    sa, sb = shapes
    a = np.zeros(sa) if const else t(np.zeros(sa))
    with pytest.raises(ShapeError, match=re.escape(f"{sa} + {sb}")):
        add(a, t(np.zeros(sb)))


@pytest.mark.parametrize("b_shape", [(3, 2), (1, 2)], ids=["same shape", "bias row"])
def test_add_constant_left_operand_is_no_parent(b_shape):
    # only b gets a gradient, with the bits it gets beside a Tensor a
    rng = np.random.default_rng(6)
    x, b0 = rng.standard_normal((3, 2)), rng.standard_normal(b_shape)
    grads = []
    for a in (x, t(x)):
        b = t(b0)
        out = add(a, b)
        assert out.data.tobytes() == (x + b0).tobytes()
        backward(scalar_sum(gelu(out)))
        grads.append(b.grad)
        if isinstance(a, Tensor):
            assert out._parents == (a, b) and a.grad is not None
        else:
            assert out._parents == (b,)
    assert grads[0].tobytes() == grads[1].tobytes()


def pullback_assignments(node, scope=()):
    """Dotted scope of every assignment to a ``_pullback`` attribute under node."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = (*scope, node.name)
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
               else [])
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Attribute) and sub.attr == "_pullback":
                yield ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from pullback_assignments(child, scope)


def test_pullback_is_assigned_only_in_the_tensor_constructor():
    # every op builds its node whole: Tensor(value, parents, pullback)
    sites = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in pullback_assignments(ast.parse(path.read_text()))]
    assert sites == [("tensor.py", "Tensor.__init__")]


def parents_reads(node, scope=()):
    """Dotted scope of every read of a ``_parents`` attribute under node."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = (*scope, node.name)
    if isinstance(node, ast.Attribute) and node.attr == "_parents" \
            and isinstance(node.ctx, ast.Load):
        yield ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from parents_reads(child, scope)


def test_parents_are_read_only_by_backward():
    sites = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in parents_reads(ast.parse(path.read_text()))}
    assert sites == {("tensor.py", "backward")}


def test_scale_and_transpose():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(scale(a, 2.5).data, [[2.5, 5.0], [7.5, 10.0]])
    assert np.array_equal(transpose_last_two(a).data, [[1.0, 3.0], [2.0, 4.0]])


def test_concat_last_axis_and_rows():
    a, b = t([[1.0], [2.0]]), t([[3.0], [4.0]])
    assert np.array_equal(concat_last_axis([a, b]).data, [[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(concat_rows([a, b]).data, [[1.0], [2.0], [3.0], [4.0]])


def test_concat_rows_is_one_node_over_its_inputs():
    a, b = t([[1.0, 2.0]]), t([[3.0, 4.0], [5.0, 6.0]])
    out = concat_rows([a, b])
    assert len(out._parents) == 2
    assert out._parents[0] is a and out._parents[1] is b
    with pytest.raises(ShapeError):
        concat_rows([a, t([[1.0, 2.0, 3.0]])])


def test_first_row():
    a = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = first_row(a)
    assert np.array_equal(out.data, [[1.0, 2.0]])
    backward(scalar_sum(out))
    assert np.array_equal(a.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])


def test_first_row_only_zeroes_the_other_rows_both_ways():
    a = t([[1.0, -2.0], [3.0, 4.0], [-5.0, 6.0]])
    out = first_row_only(a)
    assert out._parents == (a,)
    assert out.data.tobytes() == np.array([[1.0, -2.0], [0.0, 0.0], [0.0, 0.0]]).tobytes()
    backward(scalar_sum(matmul(t([[2.0, 3.0, 4.0]]), out)))
    assert a.grad.tobytes() == np.array([[2.0, 2.0], [0.0, 0.0], [0.0, 0.0]]).tobytes()
    with pytest.raises(ShapeError, match="first_row_only"):
        first_row_only(t([1.0, 2.0]))


def test_mean_last_axis():
    a = t([[1.0, 3.0], [5.0, 7.0]])
    assert np.array_equal(mean_last_axis(a).data, [[2.0], [6.0]])


def test_softmax_symmetry_and_row_sums():
    out = softmax_rows(t([[0.0, 0.0]])).data
    assert np.array_equal(out, [[0.5, 0.5]])
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 7))
    s = softmax_rows(t(x)).data
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_shift_invariance():
    # max subtraction: adding a constant per row changes nothing, and huge
    # logits stay finite
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 6))
    a = softmax_rows(t(x)).data
    b = softmax_rows(t(x + 1000.0)).data
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.all(np.isfinite(softmax_rows(t(x * 1e4)).data))


def test_attention_rejects_mismatched_projections():
    z = t(np.ones((3, 4)))
    w = [t(np.ones((4, 2))), t(np.ones((4, 2)))]
    assert attention(z, w, w, w, 0.5).shape == (3, 4)
    for wq, wk, wv in [([], [], []), (w, w[:1], w), (w, w, [w[0], t(np.ones((4, 3)))]),
                       ([t(np.ones((5, 2)))] * 2, w, w), ([t(np.ones(4))] * 2, w, w)]:
        with pytest.raises(ShapeError):
            attention(z, wq, wk, wv, 0.5)


def test_layer_norm_constant_row_is_zero():
    gamma, beta = t(np.ones(4)), t(np.zeros(4))
    out = layer_norm(t([[7.0, 7.0, 7.0, 7.0]]), gamma, beta).data
    assert np.max(np.abs(out)) < 1e-6


def test_layer_norm_constant_affine_gives_the_same_bits():
    # plain-array gamma and beta are no parents and get no gradient
    rng = np.random.default_rng(9)
    x0, g0, b0 = rng.standard_normal((5, 6)), rng.standard_normal((1, 6)), rng.standard_normal((1, 6))
    runs = []
    for gamma, beta in ((t(g0), t(b0)), (g0, b0)):
        x = t(x0)
        out = layer_norm(x, gamma, beta)
        backward(scalar_sum(gelu(out)))
        runs.append((out.data, x.grad))
        if isinstance(gamma, Tensor):
            assert out._parents == (x, gamma, beta)
        else:
            assert out._parents == (x,)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 16)) * 3 + 5
    out = layer_norm(t(x), t(np.ones(16)), t(np.zeros(16))).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-12
    # population variance with eps=1e-5 folded into the denominator
    v = (x.var(axis=1) / (x.var(axis=1) + LAYER_NORM_EPS))
    assert np.max(np.abs(out.var(axis=1) - v)) < 1e-12


@pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
def test_layer_norm_rejects_non_finite_variance(bad):
    # a finite 1e200 entry squares past the float64 maximum: an inf
    # variance would normalise its row to 0 instead of failing
    x = np.ones((3, 4))
    x[1, 2] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DataError, match="variance"):
            layer_norm(t(x), t(np.ones(4)), t(np.zeros(4)))


@pytest.mark.parametrize("rows", [1, 3, 17])
def test_layer_norm_row_means_are_ndarray_mean(rows):
    # layer_norm's row means (add.reduce / width) are ndarray.mean bit for
    # bit, over row widths that reach every pairwise-summation regime
    rng = np.random.default_rng(rows)
    for d in range(1, 301):
        x = rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
        assert np.array_equal(_row_means(x), x.mean(axis=1, keepdims=True)), d


def test_gelu_pinned_constants():
    # oracle: tanh form evaluated directly with the pinned constants
    for v in (-2.0, -0.5, 0.0, 0.7, 1.0, 3.0):
        inner = 0.7978845608028654 * (v + 0.044715 * v ** 3)
        want = 0.5 * v * (1.0 + math.tanh(inner))
        got = float(gelu(t([v])).data[0])
        assert abs(got - want) < 1e-15


def test_sigmoid_range_and_values():
    assert float(sigmoid(t([0.0])).data[0]) == 0.5
    rng = np.random.default_rng(4)
    x = rng.standard_normal(100) * 10
    s = sigmoid(t(x)).data
    assert np.all((s > 0) & (s < 1))
    assert np.max(np.abs(s - 1 / (1 + np.exp(-x)))) < 1e-15


def test_cross_entropy_oracle():
    logits = t([[1.0, 2.0, 0.5]])
    flat = logits.data.reshape(-1)
    want = math.log(np.exp(flat).sum()) - flat[1]
    got = float(cross_entropy(logits, 1).data)
    assert abs(got - want) < 1e-12
    with pytest.raises(ShapeError):
        cross_entropy(logits, 3)


def test_cross_entropy_grad_is_probs_minus_onehot():
    logits = t([[1.0, 2.0, 0.5]])
    loss = cross_entropy(logits, 1)
    backward(loss)
    p = np.exp(logits.data) / np.exp(logits.data).sum()
    want = p.copy()
    want[0, 1] -= 1.0
    assert np.max(np.abs(logits.grad - want)) < 1e-12


# ---------------------------------------------------------------- backward


def test_sum_grad_is_ones():
    x = t(np.arange(6, dtype=np.float64).reshape(2, 3))
    backward(scalar_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_dot_grad_is_2x():
    x = t([[1.0, -2.0, 3.0]])
    y = matmul(x, transpose_last_two(x))
    backward(y)
    assert np.max(np.abs(x.grad - 2 * x.data)) < 1e-12


def test_backward_requires_scalar():
    x = t(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        backward(add(x, x))


def test_grad_accumulates_across_backward_calls():
    x = t([[2.0]])
    backward(matmul(x, x))
    first = x.grad.copy()
    backward(matmul(x, x))
    assert np.array_equal(x.grad, 2 * first)
    grad = x.grad
    zero_grads({"x": x})
    assert x.grad is grad and np.array_equal(grad, [[0.0]])  # zeroed in place


def test_first_accumulate_is_a_fresh_positive_zero():
    # zeros + g semantics: -0.0 + 0.0 is +0.0, and the grad never aliases g
    x = t([[1.0, 2.0]])
    g = np.array([[-0.0, 3.0]])
    x.accumulate(g)
    assert np.array_equal(x.grad, [[0.0, 3.0]])
    assert not np.signbit(x.grad[0, 0])
    assert not np.shares_memory(x.grad, g)
    x.accumulate(g)
    assert np.array_equal(g, [[-0.0, 3.0]]) and np.array_equal(x.grad, [[0.0, 6.0]])


def test_shared_subexpression_accumulates():
    # y = x@x + x@x: grad should be 2 * d(x@x)/dx = 8 at x=2
    x = t([[2.0]])
    y = matmul(x, x)
    backward(add(y, y))
    assert float(x.grad[0, 0]) == 8.0


def test_backward_deterministic():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 4))
    grads = []
    for _ in range(2):
        wt = t(w.copy())
        z = gelu(matmul(t(np.ones((2, 4))), wt))
        backward(scalar_sum(softmax_rows(z)))
        grads.append(wt.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def tape_of(loss):
    """Every Tensor ``loss`` reaches, leaves included."""
    found, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in found:
            found[id(node)] = node
            stack.extend(node._parents)
    return list(found.values())


def replays(loss, walks):
    """Per walk, the ``_id`` of each node whose pullback ``walk(loss)`` runs,
    in order, and the gradient bytes it leaves on the tape; every walk
    starts from cleared gradients."""
    nodes, ran, out = tape_of(loss), [], []

    def logged(pull, i):
        return lambda g: (ran.append(i), pull(g))

    for node in nodes:
        if node._pullback is not None:
            node._pullback = logged(node._pullback, node._id)
    for walk in walks:
        ran.clear()
        for node in nodes:
            node.grad = None
        walk(loss)
        out.append((list(ran), [None if n.grad is None else n.grad.tobytes() for n in nodes]))
    return out


def rpe_positions_loss():
    # rpe's branch joins the embedding before the pos rows are added
    cfg = ModelConfig(patch_dim=12, dim=8, depth=2, heads=2, ffn_dim=16, n_classes=3,
                      rpe=True, rpe_hidden=4, positions=6)
    params = init_params(cfg, seed=3)
    return loss_fn(params, cfg, np.random.default_rng(3).random((5, 12)), 2)


def far_apart_loss():
    # x feeds a gelu, an add a dozen nodes later and one two dozen later,
    # as the last push of the loss's add, so a last-pushed-first walk would
    # run x's pullback before the chain's; w feeds every matmul
    rng = np.random.default_rng(4)
    w = t(rng.standard_normal((4, 4)) / 2)
    x = matmul(rng.standard_normal((3, 4)), w)
    h = gelu(x)
    for _ in range(12):
        h = gelu(matmul(h, w))
    h = add(x, h)
    for _ in range(12):
        h = sigmoid(scale(h, 0.5))
    return cross_entropy(first_row(add(h, x)), 1)


@pytest.mark.parametrize("build", [rpe_positions_loss, far_apart_loss])
def test_backward_replays_in_the_dfs_and_sort_order(build):
    loss = build()
    leaf_ids = {n._id for n in tape_of(loss) if n._pullback is None}
    (order, grads), (want, want_grads) = replays(loss, [backward, dfs_backward])
    assert order == want and grads == want_grads
    assert order == sorted(order, reverse=True) and not leaf_ids & set(order)
    assert len(order) == len(tape_of(loss)) - len(leaf_ids)


class NeverRead:
    def __iter__(self):
        raise AssertionError("backward read a leaf's parents")


@pytest.mark.parametrize("build", [rpe_positions_loss, far_apart_loss])
def test_backward_never_walks_past_a_leaf(build):
    loss = build()
    for node in tape_of(loss):
        if node._pullback is None:
            node._parents = NeverRead()
    backward(loss)


# ---------------------------------------------------------------- grad_check


def test_grad_check_quadratic_nearly_exact():
    params = {"x": t([[1.0, -2.0, 0.5]])}

    def f(p):
        return matmul(p["x"], transpose_last_two(p["x"]))

    rep = grad_check(f, params, tolerance=1e-9)
    assert rep.passed and rep.max_rel_error < 1e-9
    assert rep.n_checked == 3


def test_grad_check_gelu_chain():
    rng = np.random.default_rng(6)
    params = {"w": t(rng.standard_normal((3, 3)))}
    x = np.abs(rng.standard_normal((2, 3))) + 0.1

    def f(p):
        return scalar_sum(gelu(matmul(t(x), p["w"])))

    rep = grad_check(f, params, tolerance=1e-6)
    assert rep.passed, f"gelu chain grad error {rep.max_rel_error:.2e}"


def test_grad_check_each_primitive():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4))
    gamma = rng.standard_normal(4) + 1.5
    beta = rng.standard_normal(4)
    proj = rng.standard_normal((4, 2))  # sum of raw softmax rows is constant
    cases = {
        "softmax": lambda p: scalar_sum(
            matmul(softmax_rows(matmul(t(x), p["w"])), t(proj))),
        "layer_norm": lambda p: scalar_sum(
            layer_norm(matmul(t(x), p["w"]), t(gamma), t(beta))),
        "sigmoid": lambda p: scalar_sum(sigmoid(matmul(t(x), p["w"]))),
        "mean": lambda p: scalar_sum(mean_last_axis(matmul(t(x), p["w"]))),
        "concat": lambda p: scalar_sum(
            concat_last_axis([matmul(t(x), p["w"]), matmul(t(x), p["w"])])),
        "rows": lambda p: scalar_sum(
            concat_rows([matmul(t(x), p["w"]), scale(matmul(t(x), p["w"]), 2.0)])),
        "xent": lambda p: cross_entropy(matmul(t(x[:1]), p["w"]), 2),
        "first_row": lambda p: scalar_sum(gelu(first_row(matmul(t(x), p["w"])))),
        "first_row_only": lambda p: scalar_sum(gelu(first_row_only(matmul(t(x), p["w"])))),
    }
    for name, f in cases.items():
        params = {"w": t(rng.standard_normal((4, 4)))}
        rep = grad_check(f, params, tolerance=1e-6)
        assert rep.passed, f"{name}: grad error {rep.max_rel_error:.2e} at {rep.param}[{rep.index}]"


def test_grad_check_sampling_is_deterministic():
    rng = np.random.default_rng(8)
    params = {"w": t(rng.standard_normal((5, 5)))}
    x = rng.standard_normal((2, 5))

    def f(p):
        return scalar_sum(gelu(matmul(t(x), p["w"])))

    a = grad_check(f, params, max_entries=10, seed=3)
    b = grad_check(f, params, max_entries=10, seed=3)
    assert a.n_checked == b.n_checked == 10
    assert a.max_rel_error == b.max_rel_error and a.param == b.param


@pytest.mark.parametrize("max_entries", [0, -3])
def test_grad_check_of_no_entry_is_config_error(max_entries):
    params = {"w": t(np.ones((2, 2)))}
    with pytest.raises(ConfigError, match="max_entries must be >= 1"):
        grad_check(lambda p: scalar_sum(p["w"]), params, max_entries=max_entries)
    with pytest.raises(ConfigError, match="no parameter entries"):
        grad_check(lambda p: scalar_sum(p["w"]), {"w": t(np.ones((0, 2)))})


# ---------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    params = {
        "layer0.w": t(rng.standard_normal((3, 4))),
        "bias": t(rng.standard_normal(4)),
        "scalar": t(np.float64(2.5)),
    }
    path = tmp_path / "m.petn"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert sorted(back) == sorted(params)
    for name in params:
        assert np.array_equal(back[name].data, params[name].data)
        assert back[name].data.shape == params[name].data.shape


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(10)
    params = {"b": t(rng.standard_normal(3)), "a": t(rng.standard_normal((2, 2)))}
    p1, p2 = tmp_path / "1.petn", tmp_path / "2.petn"
    save_checkpoint(p1, params)
    save_checkpoint(p2, dict(reversed(list(params.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(CHECKPOINT_MAGIC)


def test_checkpoint_truncated_anywhere_is_picrypt_error(tmp_path):
    # every strict prefix: inside the header, a name, the dims or the data
    rng = np.random.default_rng(11)
    params = {"w": t(rng.standard_normal((2, 3))), "s": t(np.float64(1.5))}
    full = tmp_path / "m.petn"
    save_checkpoint(full, params)
    blob = full.read_bytes()
    cut = tmp_path / "cut.petn"
    for k in range(len(blob)):
        cut.write_bytes(blob[:k])
        with pytest.raises(PicryptError):
            load_checkpoint(cut)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.petn"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(Exception):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_version(tmp_path):
    params = {"a": t([1.0])}
    path = tmp_path / "m.petn"
    save_checkpoint(path, params)
    data = bytearray(path.read_bytes())
    data[4] = 9  # bump the little-endian version field
    path.write_bytes(bytes(data))
    with pytest.raises(Exception, match="version"):
        load_checkpoint(path)


def one_entry_checkpoint(name: bytes, dims) -> bytes:
    """PETN v1 bytes of one entry with the given raw name and dims."""
    return (CHECKPOINT_MAGIC + struct.pack("<II", 1, 1)
            + struct.pack("<H", len(name)) + name
            + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
            + np.zeros(math.prod(dims)).tobytes())


def test_checkpoint_rejects_non_utf8_name(tmp_path):
    path = tmp_path / "m.petn"
    path.write_bytes(one_entry_checkpoint(b"w\xff", (1, 2)))
    with pytest.raises(ShapeError, match="not UTF-8"):
        load_checkpoint(path)


def test_checkpoint_rejects_bytes_after_the_last_entry(tmp_path):
    path = tmp_path / "m.petn"
    save_checkpoint(path, {"a": t([1.0, 2.0])})
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ShapeError, match="7 bytes after the last checkpoint entry"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_repeated_name(tmp_path):
    # two entries named "a", the second holding 7s: neither may win silently
    entry = one_entry_checkpoint(b"a", (1,))[12:]
    path = tmp_path / "m.petn"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 2) + entry
                     + entry[:-8] + struct.pack("<d", 7.0))
    with pytest.raises(ShapeError, match="entry 'a' appears twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(0, 2**60), (0, 2**64 - 1), (2**30, 0, 2**30)])
def test_checkpoint_rejects_empty_entry_dims_no_array_can_have(tmp_path, dims):
    # no payload bytes to run out of: numpy's own size limit applies
    path = tmp_path / "m.petn"
    path.write_bytes(one_entry_checkpoint(b"w", dims))
    with pytest.raises(ShapeError, match="too large for an array"):
        load_checkpoint(path)
    path.write_bytes(one_entry_checkpoint(b"w", (0, 2**60 - 1)))
    assert load_checkpoint(path)["w"].data.shape == (0, 2**60 - 1)


# a zero-size entry among them, so a damaged dim need not run past the file
VALID_CHECKPOINT = saved_bytes(lambda path: save_checkpoint(path, {
    "a": t(np.arange(6.0).reshape(2, 3)), "b": t([0.5]), "z": t(np.zeros((0, 3)))}))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(damaged(VALID_CHECKPOINT))
def test_damaged_checkpoint_gives_tensors_or_a_picrypt_error(blob):
    params = load_or_none(load_checkpoint, blob)
    assert params is None or all(isinstance(p, Tensor) for p in params.values())


@pytest.mark.parametrize("rank", [MAX_CHECKPOINT_RANK + 1, 65])
def test_checkpoint_rejects_rank_above_bound(tmp_path, rank):
    path = tmp_path / "m.petn"
    path.write_bytes(one_entry_checkpoint(b"w", (1,) * rank))
    with pytest.raises(ShapeError, match="rank"):
        load_checkpoint(path)
    path.write_bytes(one_entry_checkpoint(b"w", (1,) * MAX_CHECKPOINT_RANK))
    assert load_checkpoint(path)["w"].data.shape == (1,) * MAX_CHECKPOINT_RANK
