"""A train step and an eval forward on the kernels' worker threads: the
bits of a sequential run, exceptions that reach the caller, and the BLAS
thread count held at one for the step or forward and restored after it."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import lmnet
import lmnet.model
from lmnet import ops
from lmnet.errors import NonFiniteGradientError, ShapeError
from lmnet.model import GraphConfig, Variant, build_model, init_parameters, loss_fn
from lmnet.optim import adam_init, adam_step
from lmnet.seeding import derive_rng

from conftest import InlineExecutor

SIDE = 32
# the kernels' own worker pool and task size, which the inline_workers fixture replaces
POOL, TASK_ELEMS = ops._pool, ops.TASK_ELEMS


def step(graph, batch):
    """One train step's gradients, and the running statistics it leaves."""
    pred, cache = graph.forward(batch, "train", rng=derive_rng(7, 1))
    _, grad_pred = loss_fn("bce")(pred, (batch[:, :1] > 0.5).astype(graph.dtype))
    del pred
    grads = graph.backward(cache, grad_pred)
    return {**grads, **graph.stats}


def run_step(variant, n):
    graph = init_parameters(build_model(variant, GraphConfig(seed=2)))
    batch = np.random.default_rng(n).random((n, 3, SIDE, SIDE)).astype(np.float32)
    return {name: a.tobytes() for name, a in step(graph, batch).items()}


def spy_threads(monkeypatch, name="_im2col") -> set:
    """The names of the threads that call the ops helper `name` from now on:
    _im2col builds a backward's column matrices, _padded_rows a forward
    block's input strip and _normalize a batch norm part."""
    names = set()
    helper = getattr(ops, name)

    def spy(*args):
        names.add(threading.current_thread().name)
        return helper(*args)

    monkeypatch.setattr(ops, name, spy)
    return names


def eval_graph(variant):
    """A graph whose running statistics are not batch norm's defaults."""
    graph = init_parameters(build_model(variant, GraphConfig(seed=2)))
    rng = np.random.default_rng(5)
    for name, stat in graph.stats.items():
        graph.stats[name] = (rng.random(stat.shape) + (0.5 if "var" in name else -0.5)
                             ).astype(graph.dtype)
    return graph


def run_eval(variant, shape):
    batch = np.random.default_rng(sum(shape)).random(shape).astype(np.float32)
    return eval_graph(variant).forward(batch, "eval")[0].tobytes()


@pytest.mark.parametrize("variant", list(Variant))
def test_a_train_step_on_workers_has_the_bits_of_a_sequential_one(variant, inline_workers,
                                                                   monkeypatch):
    # every kernel split at any size, in the caller's thread and on the pool;
    # the split of the default TASK_ELEMS; and WORKERS = 1, which reduces
    # batch norm's statistics whole. Batch 3 and 5 deal uneven halves
    for n in (2, 3, 5):
        with monkeypatch.context() as m:
            threads = spy_threads(m)
            inline = run_step(variant, n)
        assert threads == {threading.current_thread().name}
        with monkeypatch.context() as m:
            m.setattr(ops, "_pool", POOL)
            threads = spy_threads(m)
            pooled = run_step(variant, n)
            assert any(name.startswith("lmnet-worker") for name in threads)
            m.setattr(ops, "TASK_ELEMS", TASK_ELEMS)
            default = run_step(variant, n)
        with monkeypatch.context() as m:
            m.setattr(ops, "WORKERS", 1)
            whole = run_step(variant, n)
        assert pooled == inline == default == whole, (variant, n)


EVAL_CASES = [(variant, (n, 3, 64, 64)) for variant in Variant for n in (1, 3)]
EVAL_CASES.append((Variant.PROPOSED, (1, 3, 176, 208)))


@pytest.mark.parametrize("variant,shape", EVAL_CASES,
                         ids=[f"{v.value}-{n}x{h}x{w}" for v, (n, _, h, w) in EVAL_CASES])
def test_an_eval_forward_on_workers_has_the_bits_of_a_sequential_one(variant, shape,
                                                                     inline_workers, monkeypatch):
    # one sample's conv strips, and its batch norm, relu and max-pool channel
    # parts, split at any size in the caller's thread and on the pool; the
    # split of the default TASK_ELEMS; and WORKERS = 1, which splits nothing.
    # 176x208 runs as a grid of tiles
    monkeypatch.setattr(lmnet.model, "TILE_PIXELS", 1 << 14)
    helpers = ("_padded_rows", "_normalize")
    with monkeypatch.context() as m:
        threads = [spy_threads(m, name) for name in helpers]
        inline = run_eval(variant, shape)
    assert threads == [{threading.current_thread().name}] * 2
    with monkeypatch.context() as m:
        m.setattr(ops, "_pool", POOL)
        threads = [spy_threads(m, name) for name in helpers]
        pooled = run_eval(variant, shape)
        for names in threads:
            assert any(name.startswith("lmnet-worker") for name in names)
        m.setattr(ops, "TASK_ELEMS", TASK_ELEMS)
        default = run_eval(variant, shape)
    with monkeypatch.context() as m:
        m.setattr(ops, "WORKERS", 1)
        whole = run_eval(variant, shape)
    assert pooled == inline == default == whole, (variant, shape)


class CountingPool:
    """The kernels' worker pool, counting the calls submitted to it."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return POOL().submit(fn, *args)


UNIT_CASES = [(variant, shape, dtype) for variant in Variant
              for shape in ((3, 3, 32, 48), (3, 3, 192, 192)) for dtype in (np.float32, np.float64)]


@pytest.mark.parametrize(
    "variant,shape,dtype", UNIT_CASES,
    ids=[f"{v.value}-{n}x{h}x{w}-{np.dtype(d).name}" for v, (n, _, h, w), d in UNIT_CASES])
def test_small_samples_run_as_units_with_the_bits_of_each_alone(variant, shape, dtype,
                                                               monkeypatch):
    # whole samples dealt to the caller's thread and the pool, each unit's
    # kernels inline in its thread (the pool takes one share and nothing
    # more); the same split inline, with every kernel's parts cut at any
    # size, in the caller's thread; and WORKERS = 1. In each, a batch of
    # small samples gives the bits of forwarding each sample alone there,
    # as its kernels cut the blocks a one-sample forward cuts
    n, _, h, w = shape
    assert 2 * h * w <= lmnet.model.TILE_PIXELS
    graph = eval_graph(variant).astype(dtype)
    batch = np.random.default_rng(sum(shape)).random(shape).astype(dtype)

    def alone():
        return np.concatenate([graph.forward(batch[i:i + 1], "eval")[0]
                               for i in range(n)]).tobytes()

    with monkeypatch.context() as m:
        m.setattr(ops, "WORKERS", 2)
        pool = CountingPool()
        m.setattr(ops, "_pool", lambda: pool)
        threads = spy_threads(m, "_padded_rows")
        pooled = graph.forward(batch, "eval")[0]
        assert pool.submitted == 1
        assert threading.current_thread().name in threads
        assert any(name.startswith("lmnet-worker") for name in threads)
        m.setattr(ops, "_pool", POOL)
        assert pooled.dtype == dtype and pooled.tobytes() == alone()
    with monkeypatch.context() as m:
        m.setattr(ops, "WORKERS", 2)
        m.setattr(ops, "TASK_ELEMS", 1)
        m.setattr(ops, "_pool", InlineExecutor)
        assert graph.forward(batch, "eval")[0].tobytes() == alone()
    with monkeypatch.context() as m:
        m.setattr(ops, "WORKERS", 1)
        assert graph.forward(batch, "eval")[0].tobytes() == alone()


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_an_exception_in_a_unit_reaches_the_caller_unchanged(where, monkeypatch):
    # the unit that raises runs in the caller's thread or on the pool; either
    # way the caller gets the exception itself, and its thread is no longer
    # inline: the next one-sample forward deals its strips to the pool again
    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    graph = eval_graph(Variant.PROPOSED)
    batch = np.random.default_rng(8).random((4, 3, SIDE, SIDE)).astype(np.float32)
    error = ShapeError("raised in a unit")
    padded_rows = ops._padded_rows

    def failing(*args):
        if threading.current_thread().name.startswith("lmnet-worker") == (where == "pool"):
            raise error
        return padded_rows(*args)

    with monkeypatch.context() as m:
        m.setattr(ops, "_padded_rows", failing)
        with pytest.raises(ShapeError) as info:
            graph.forward(batch, "eval")
    assert info.value is error
    assert not getattr(ops._inline, "on", False)
    with monkeypatch.context() as m:
        threads = spy_threads(m, "_padded_rows")
        graph.forward(batch[:1], "eval")
    assert any(name.startswith("lmnet-worker") for name in threads)


def test_more_workers_than_cores_switching_often_keep_the_bits(monkeypatch):
    # the workers write disjoint slices of shared outputs and hand their
    # weight-gradient products back to be summed in order; a lost or
    # reordered update would change some gradient's bits, or some pixel of
    # an eval forward's strips and channel parts, or of its units' samples
    monkeypatch.setattr(ops, "WORKERS", 1)
    whole = run_step(Variant.PROPOSED, 5)
    whole_eval = run_eval(Variant.PROPOSED, (1, 3, 64, 64))
    whole_units = run_eval(Variant.PROPOSED, (7, 3, 32, 32))
    pool = ThreadPoolExecutor(4, thread_name_prefix="lmnet-worker")
    interval = sys.getswitchinterval()
    monkeypatch.setattr(ops, "WORKERS", 4)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    monkeypatch.setattr(ops, "_pool", lambda: pool)
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            assert run_step(Variant.PROPOSED, 5) == whole
            assert run_eval(Variant.PROPOSED, (1, 3, 64, 64)) == whole_eval
            assert run_eval(Variant.PROPOSED, (7, 3, 32, 32)) == whole_units
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_an_exception_in_a_worker_reaches_the_caller_unchanged(where, monkeypatch):
    # a conv backward's weight-gradient products are formed a pair of samples
    # at a time, one in the caller's thread and one on the pool; the one that
    # raises runs on either side, and the caller's thread is not left inline
    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    graph = init_parameters(build_model(Variant.PROPOSED))
    batch = np.random.default_rng(1).random((4, 3, SIDE, SIDE)).astype(np.float32)
    pred, cache = graph.forward(batch, "train", rng=derive_rng(7, 1))
    error = ShapeError("raised in a worker")
    raised_in = []
    im2col = ops._im2col

    def failing(*args):
        name = threading.current_thread().name
        if name.startswith("lmnet-worker") == (where == "pool"):
            raised_in.append(name)
            raise error
        return im2col(*args)

    with monkeypatch.context() as m:
        m.setattr(ops, "_im2col", failing)
        with pytest.raises(ShapeError) as info:
            graph.backward(cache, np.ones_like(pred))
    assert info.value is error and raised_in
    assert not getattr(ops._inline, "on", False)
    assert np.isfinite(step(graph, batch)["l4.w"]).all()  # the pool still serves a step


def test_calls_inside_a_dealt_call_run_in_its_thread(monkeypatch):
    # each share _each deals runs inline: an _each call inside it runs all of
    # its calls in that share's thread, so the pool takes the one outer share
    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    pool = CountingPool()
    monkeypatch.setattr(ops, "_pool", lambda: pool)
    threads = {}

    def outer(i):
        here = threading.current_thread().name
        ops._each(lambda j: threads.setdefault((i, j), (here, threading.current_thread().name)),
                  range(3), ops.TASK_ELEMS)

    ops._each(outer, range(2), ops.TASK_ELEMS)
    assert sorted(threads) == [(i, j) for i in range(2) for j in range(3)]
    assert all(outer_thread == inner for outer_thread, inner in threads.values())
    assert threading.current_thread().name == threads[0, 0][0]
    assert threads[1, 0][0].startswith("lmnet-worker")
    assert pool.submitted == 1
    assert not getattr(ops._inline, "on", False)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_steps_on_a_pool_of_its_own(monkeypatch):
    # a child forked after a step has none of the parent's pool threads
    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    graph = init_parameters(build_model(Variant.PROPOSED))
    batch = np.random.default_rng(4).random((2, 3, SIDE, SIDE)).astype(np.float32)
    step(graph, batch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            step(graph, batch)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's step did not finish")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS at two threads for the test, and back at its count after."""
    blas = ops._blas()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no thread control")
    get, put = blas
    before = get()
    put(2)
    if get() != 2:
        put(before)
        pytest.skip("numpy's BLAS does not run at two threads here")
    yield get
    put(before)


def test_a_step_holds_the_blas_at_one_thread_and_restores_it(blas_at_two, monkeypatch):
    get = blas_at_two
    graph = init_parameters(build_model(Variant.PROPOSED))
    batch = np.random.default_rng(2).random((3, 3, SIDE, SIDE)).astype(np.float32)
    during = set()
    im2col = ops._im2col

    def spy(*args):
        during.add(get())
        return im2col(*args)

    with monkeypatch.context() as m:
        m.setattr(ops, "_im2col", spy)
        step(graph, batch)
    assert during == {1}
    assert get() == 2

    def failing(*args):
        raise ShapeError("raised in a worker")

    with monkeypatch.context() as m:
        m.setattr(ops, "_im2col", failing)
        with pytest.raises(ShapeError, match="in a worker"):
            step(graph, batch)
    assert get() == 2

    # a step whose gradients the optimizer rejects
    grads = step(graph, np.full_like(batch, np.nan))
    with pytest.raises(NonFiniteGradientError):
        adam_step(graph.params, {k: grads[k] for k in graph.params}, adam_init(graph.params),
                  lr=0.005, eps=1e-2)
    assert get() == 2


def test_an_eval_forward_holds_the_blas_at_one_thread_and_restores_it(blas_at_two,
                                                                    monkeypatch):
    get = blas_at_two
    graph = eval_graph(Variant.PROPOSED)
    batch = np.random.default_rng(2).random((2, 3, 64, 64)).astype(np.float32)
    during = set()
    padded_rows = ops._padded_rows

    def spy(*args):
        during.add(get())
        return padded_rows(*args)

    with monkeypatch.context() as m:
        m.setattr(ops, "_padded_rows", spy)
        graph.forward(batch, "eval")
    assert during == {1}
    assert get() == 2

    def failing(*args):
        raise ShapeError("raised in a worker")

    with monkeypatch.context() as m:
        m.setattr(ops, "_padded_rows", failing)
        with pytest.raises(ShapeError, match="in a worker"):
            graph.forward(batch, "eval")
    assert get() == 2


DIGEST = """
import hashlib, sys
import numpy as np
from lmnet.model import GraphConfig, build_model, init_parameters, loss_fn
from lmnet.seeding import derive_rng
graph = init_parameters(build_model("proposed", GraphConfig(seed=2)))
batch = np.random.default_rng(3).random((4, 3, 32, 32)).astype(np.float32)
pred, cache = graph.forward(batch, "train", rng=derive_rng(7, 1))
grads = graph.backward(cache, loss_fn("bce")(pred, (batch[:, :1] > 0.5).astype(np.float32))[1])
digest = hashlib.sha256()
for name in sorted(grads):
    digest.update(grads[name].tobytes())
print(digest.hexdigest())
"""


EVAL_DIGEST = """
import hashlib
import numpy as np
from lmnet.model import GraphConfig, build_model, init_parameters
graph = init_parameters(build_model("proposed", GraphConfig(seed=2)))
batch = np.random.default_rng(3).random((2, 3, 64, 64)).astype(np.float32)
print(hashlib.sha256(graph.forward(batch, "eval")[0].tobytes()).hexdigest())
"""


def digests_at_one_and_two_blas_threads(script: str) -> list:
    """What `script` prints in a subprocess at OPENBLAS_NUM_THREADS=1 and =2."""
    if ops._blas() is None:
        pytest.skip("numpy's BLAS exposes no thread control")
    src = str(Path(lmnet.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.append(run.stdout.strip())
    return digests


def test_a_train_step_has_the_same_bits_at_any_blas_thread_count():
    # OpenBLAS splits a product's sums by thread, and rounds l4's at one
    # thread differently than at two; the step holds it at one
    digests = digests_at_one_and_two_blas_threads(DIGEST)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_an_eval_forward_has_the_same_bits_at_any_blas_thread_count():
    # the forward holds the BLAS at one thread too; a build whose eval forward
    # ran at the process's count printed two digests here
    digests = digests_at_one_and_two_blas_threads(EVAL_DIGEST)
    assert len(digests[0]) == 64 and digests[0] == digests[1]
