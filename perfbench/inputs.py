"""Seeded synthetic inputs, written as PPM/PGM with an index.tsv.

The benchmark makes its own scenes instead of calling the package's
fixture generator, so a change to the package cannot change what it is
measured on, and it writes netpbm because the package's PNG path needs an
imaging library. The package receives only the files and the index.

A scene is dark noise with bright axis-aligned rectangles; the mask is the
union of the rectangles. Every 192-pixel tile's worth of area gets three
rectangles with sides 18% to 26% of a tile, so a large scene looks like many
tiles side by side, and the foreground share (about 15%) varies little
from seed to seed: a loss measured on these inputs then depends on the
program, not on how much foreground a seed happened to draw.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lmnet import data, imgio

TILE = 192
RECTS_PER_TILE = 3


def scene(rng: np.random.Generator, size: int):
    """(image (3, size, size) in [0, 1], binary mask (size, size)), float32."""
    image = 0.05 + 0.40 * rng.random((3, size, size))
    mask = np.zeros((size, size), dtype=np.float32)
    side = min(size, TILE)
    for _ in range(RECTS_PER_TILE * max(1, (size // TILE) ** 2)):
        rh, rw = (int(rng.uniform(0.18, 0.26) * side) for _ in range(2))
        top = int(rng.integers(0, size - rh + 1))
        left = int(rng.integers(0, size - rw + 1))
        image[:, top:top + rh, left:left + rw] = rng.uniform(0.65, 0.85) + 0.1 * rng.random((3, rh, rw))
        mask[top:top + rh, left:left + rw] = 1.0
    return image.astype(np.float32), mask


def write_scene(rng, size: int, image_path: Path, mask_path: Path) -> None:
    image, mask = scene(rng, size)
    imgio.write_rgb(image_path, image)
    imgio.write_gray(mask_path, mask)


def write_dataset(root: Path, counts: dict, size: int, seed: int) -> Path:
    """Write `counts` (split -> n) tiles under root; returns the index path."""
    rng = np.random.default_rng(seed)
    records = []
    for split, n in counts.items():
        for sub in ("images", "masks"):
            (root / split / sub).mkdir(parents=True, exist_ok=True)
        for i in range(n):
            img = f"{split}/images/t{i:04d}.ppm"
            msk = f"{split}/masks/t{i:04d}.pgm"
            write_scene(rng, size, root / img, root / msk)
            records.append(data.IndexRecord(image=img, mask=msk, split=split))
    index_path = root / "index.tsv"
    data.save_index(data.DatasetIndex(root=root, records=records), index_path)
    return index_path
