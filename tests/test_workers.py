"""A train step on the kernels' worker threads: the bits of a sequential
run, exceptions that reach the caller, and the BLAS thread count held at
one for the step and restored after it."""

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
from lmnet import ops
from lmnet.errors import NonFiniteGradientError, ShapeError
from lmnet.model import GraphConfig, Variant, build_model, init_parameters, loss_fn
from lmnet.optim import adam_init, adam_step
from lmnet.seeding import derive_rng

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


def spy_threads(monkeypatch) -> set:
    """The names of the threads that build column matrices from now on."""
    names = set()
    im2col = ops._im2col

    def spy(*args):
        names.add(threading.current_thread().name)
        return im2col(*args)

    monkeypatch.setattr(ops, "_im2col", spy)
    return names


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


def test_more_workers_than_cores_switching_often_keep_the_bits(monkeypatch):
    # the workers write disjoint slices of shared outputs and hand their
    # weight-gradient products back to be summed in order; a lost or
    # reordered update would change some gradient's bits
    monkeypatch.setattr(ops, "WORKERS", 1)
    whole = run_step(Variant.PROPOSED, 5)
    pool = ThreadPoolExecutor(4, thread_name_prefix="lmnet-worker")
    interval = sys.getswitchinterval()
    monkeypatch.setattr(ops, "WORKERS", 4)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    monkeypatch.setattr(ops, "_pool", lambda: pool)
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            assert run_step(Variant.PROPOSED, 5) == whole
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


def test_an_exception_in_a_worker_reaches_the_caller_unchanged(monkeypatch):
    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(ops, "TASK_ELEMS", 1)
    graph = init_parameters(build_model(Variant.PROPOSED))
    batch = np.random.default_rng(1).random((4, 3, SIDE, SIDE)).astype(np.float32)
    pred, cache = graph.forward(batch, "train", rng=derive_rng(7, 1))
    error = ShapeError("raised in a worker")
    raised_in = []

    def failing(*args):
        raised_in.append(threading.current_thread().name)
        raise error

    with monkeypatch.context() as m:
        m.setattr(ops, "_im2col", failing)
        with pytest.raises(ShapeError) as info:
            graph.backward(cache, np.ones_like(pred))
    assert info.value is error
    assert raised_in and all(name.startswith("lmnet-worker") for name in raised_in)
    assert np.isfinite(step(graph, batch)["l4.w"]).all()  # the pool still serves a step


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
                  lr=0.005, beta1=0.9, beta2=0.999, eps=1e-2)
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


def test_a_train_step_has_the_same_bits_at_any_blas_thread_count():
    # OpenBLAS splits a product's sums by thread, and rounds l4's at one
    # thread differently than at two; the step holds it at one
    if ops._blas() is None:
        pytest.skip("numpy's BLAS exposes no thread control")
    src = str(Path(lmnet.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", DIGEST], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
