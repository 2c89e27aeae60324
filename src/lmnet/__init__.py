"""lmnet: a small from-scratch segmentation engine for aerial landmark maps.

Four related fully convolutional variants (plain, dilation, residual,
proposed) built on hand-written numpy forward/backward kernels, plus the
dataset pipeline, trainer, metrics, and CLI around them. Import the
submodules directly (lmnet.model, lmnet.ops, lmnet.train, ...).
"""

__version__ = "0.1.0"
