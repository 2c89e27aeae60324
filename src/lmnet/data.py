"""Dataset preparation and batching.

The preparation pipeline turns large annotated scenes into fixed-size
training pairs in one pass over each scene's tiles: cut the scene losslessly,
log a tile whose mask foreground fraction falls outside a band to
`rejects.tsv`, resize and write any other, and index the written pairs as
tab-separated (image, mask, split) records. Tiles inherit the split of their
parent scene, so no scene leaks across splits.

A prepared layout holds `<split>/images/<name>` with a mask of the same name
under `<split>/masks/`; `_record` is the one place that forms those paths and
`_write_pair` the one writer. A sample is an (image, mask) pair of uint8
arrays, a quarter of float32's bytes: the image's 8-bit levels (3, h, w)
and a {0, 1} mask (h, w). A batch stacks them, and `prepare_dataset` holds
scenes so, scaling a tile to [0, 1] only to resize it. Masks are binary
the moment they enter this module (`load_pair` binarizes what it reads,
`synth_pair` draws them binary) and stay binary through every operation;
`load_pair` is also where an image must agree in size with its mask. The
network takes any size on its pooling grid, so each split has one tile size
on POOL_GRID, which `check_split` checks from file headers and `batch_iter`
as it decodes. A synthetic rectangle generator writes deterministic layouts
for tests and smoke runs.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import imgio
from .errors import ConfigError, DataError
from .model import pool_grid_problem
from .seeding import derive_rng

MASK_THRESHOLD = 128.0 / 255.0
SPLITS = ("train", "val", "test")
TARGET_SIZE = (192, 192)  # the paper's training tile, prepare's default


def binarize_mask(raw) -> np.ndarray:
    """Map [0, 1] grayscale to {0, 1}: value >= MASK_THRESHOLD becomes 1.

    The comparison runs in the array's own dtype so 8-bit level 128 lands
    exactly on the threshold and is kept.
    """
    raw = np.asarray(raw)
    return (raw >= raw.dtype.type(MASK_THRESHOLD)).astype(raw.dtype)


def _check_pool_grid(what: str, dims) -> None:
    """Written tiles are network inputs, so they follow the model's pooling grid."""
    problem = pool_grid_problem(what, dims)
    if problem:
        raise ConfigError(problem)


def _check_tiling(size, tile: int) -> None:
    for axis, dim in zip(("height", "width"), size):
        if dim % tile:
            raise DataError(f"{axis} {dim} is not divisible by tile size {tile}")


def tile_image(image: np.ndarray, mask: np.ndarray, tile: int = 500) -> list:
    """Cut an (image, mask) pair into non-overlapping tile×tile pairs, row-major.

    Both source dims must divide evenly; no pixel is resampled or dropped.
    Each pair is a view of the scene's arrays, not a copy.
    """
    h, w = image.shape[1:]
    _check_tiling((h, w), tile)
    out = []
    for r in range(h // tile):
        for c in range(w // tile):
            ys = slice(r * tile, (r + 1) * tile)
            xs = slice(c * tile, (c + 1) * tile)
            out.append((image[:, ys, xs], mask[ys, xs]))
    return out


def foreground_fraction(mask: np.ndarray) -> float:
    return float(np.count_nonzero(mask)) / mask.size


def _bilinear_axis(in_len: int, out_len: int):
    scale = in_len / out_len
    centers = (np.arange(out_len, dtype=np.float64) + 0.5) * scale - 0.5
    lo = np.floor(centers)
    frac = centers - lo
    lo = lo.astype(np.int64)
    i0 = np.clip(lo, 0, in_len - 1)
    i1 = np.clip(lo + 1, 0, in_len - 1)
    return i0, i1, frac


def _resize_bilinear(img: np.ndarray, target) -> np.ndarray:
    """Pixel-center bilinear resize of (..., h, w), edges clamped.

    Interpolation is written in lerp form v0 + f*(v1 - v0) so constants and
    the no-op resize come out bit-exact. Only the gathered rows are cast to
    float64, an exact cast, not the whole input.
    """
    th, tw = target
    h, w = img.shape[-2:]
    y0, y1, fy = _bilinear_axis(h, th)
    x0, x1, fx = _bilinear_axis(w, tw)
    rows0 = img[..., y0, :].astype(np.float64, copy=False)
    rows1 = img[..., y1, :].astype(np.float64, copy=False)
    band = rows0 + fy[:, None] * (rows1 - rows0)
    cols0 = band[..., :, x0]
    cols1 = band[..., :, x1]
    out = cols0 + fx * (cols1 - cols0)
    return out.astype(img.dtype, copy=False)


def _resize_nearest(mask: np.ndarray, target) -> np.ndarray:
    th, tw = target
    h, w = mask.shape[-2:]
    ys = np.minimum((np.arange(th) + 0.5) * (h / th), h - 1).astype(np.int64)
    xs = np.minimum((np.arange(tw) + 0.5) * (w / tw), w - 1).astype(np.int64)
    return mask[..., ys, :][..., :, xs]


def resize_pair(image: np.ndarray, mask: np.ndarray, target=TARGET_SIZE) -> tuple:
    """Downscale an (image, mask) pair: bilinear for the image, nearest for
    the mask.

    The nearest gather only picks pixels, so a binary mask stays binary.
    Upscaling is refused.
    """
    th, tw = target
    h, w = image.shape[1:]
    if th > h or tw > w:
        raise DataError(
            f"target {target} exceeds source {(h, w)}; upscaling is not supported"
        )
    return _resize_bilinear(image, target), _resize_nearest(mask, target)


# ---------------------------------------------------------------------------
# Index files

@dataclass
class IndexRecord:
    image: str  # path relative to the index file
    mask: str
    split: str


@dataclass
class DatasetIndex:
    root: Path  # directory the record paths are relative to
    records: list

    def split_records(self, split: str) -> list:
        """The records of `split` in index order; an unknown or empty split
        is refused."""
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r}; expected one of {', '.join(SPLITS)}")
        records = [r for r in self.records if r.split == split]
        if not records:
            raise ConfigError(f"split {split!r} is empty in {self.root}")
        return records

    def image_path(self, rec: IndexRecord) -> Path:
        return self.root / rec.image

    def mask_path(self, rec: IndexRecord) -> Path:
        return self.root / rec.mask


def _record(split: str, name: str) -> IndexRecord:
    """The record of pair `name` in `split` of a prepared layout."""
    return IndexRecord(image=f"{split}/images/{name}", mask=f"{split}/masks/{name}",
                       split=split)


def _write_pair(root: Path, rec: IndexRecord, image: np.ndarray, mask: np.ndarray) -> None:
    """Write an (image, mask) pair where `rec` points under `root`, creating
    directories."""
    for rel in (rec.image, rec.mask):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
    imgio.write_rgb(root / rec.image, image)
    imgio.write_gray(root / rec.mask, mask)


def save_index(index: DatasetIndex, path) -> None:
    lines = [f"{r.image}\t{r.mask}\t{r.split}\n" for r in index.records]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def load_index(path) -> DatasetIndex:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: index file does not exist")
    root = path.parent
    records = []
    seen = set()
    try:
        # a Windows editor's byte-order mark, dropped without importing the utf-8-sig codec
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: index is not UTF-8 ({exc.reason} at byte {exc.start})") from None
    for ln, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{ln}: expected 3 tab-separated fields")
        image, mask, split = parts
        if split not in SPLITS:
            raise DataError(f"{path}:{ln}: unknown split {split!r}")
        if image in seen:
            raise DataError(f"{path}:{ln}: duplicate image path {image}")
        seen.add(image)
        for rel in (image, mask):
            if not (root / rel).is_file():
                raise DataError(f"{path}:{ln}: referenced file {rel} is missing")
        records.append(IndexRecord(image=image, mask=mask, split=split))
    return DatasetIndex(root=root, records=records)


def build_index(prepared_dir) -> DatasetIndex:
    """Scan a prepared directory layout into an index.

    Expects `<dir>/<split>/images/*.png` with a like-named file under
    `<dir>/<split>/masks/`. Images without a mask fail the build, listing
    every orphan.
    """
    prepared = Path(prepared_dir)
    records = []
    orphans = []
    for split in SPLITS:
        img_dir = prepared / split / "images"
        if not img_dir.is_dir():
            continue
        for img in sorted(img_dir.iterdir()):
            if not img.is_file():
                continue
            rec = _record(split, img.name)
            if not (prepared / rec.mask).is_file():
                orphans.append(rec.image)
                continue
            records.append(rec)
    if orphans:
        raise DataError(
            "images with no matching mask: " + ", ".join(orphans[:10])
            + ("" if len(orphans) <= 10 else f" (+{len(orphans) - 10} more)")
        )
    return DatasetIndex(root=prepared, records=records)


def _one_tile_size(split: str):
    """A check of a split's tiles, given one by one as (path, (h, w)): the
    first must lie on POOL_GRID and every later one must have its size."""
    first = None  # (path, size) of the first tile

    def check(path, size) -> None:
        nonlocal first
        if first is None:
            problem = pool_grid_problem(f"{path}: tile size", size)
            if problem:
                raise DataError(problem)
            first = (path, size)
        elif size != first[1]:
            (h, w), (first_path, (eh, ew)) = size, first
            raise DataError(f"{path} is {h}x{w}, but the first image of split {split!r}, "
                            f"{first_path}, is {eh}x{ew}; re-prepare the data to one tile size")

    return check


def load_pair(index: DatasetIndex, rec: IndexRecord) -> tuple:
    """The sample `rec` names: the image's 8-bit levels (3, h, w) and its
    binarized mask (h, w), both uint8."""
    image_path, mask_path = index.image_path(rec), index.mask_path(rec)
    # the dtype goes positionally: perfbench's tracer wraps read_rgb as call(*args)
    image = imgio.read_rgb(image_path, np.uint8)
    mask = binarize_mask(imgio.read_gray(mask_path)).astype(np.uint8)
    if image.shape[1:] != mask.shape:
        raise DataError(f"{mask_path} is {mask.shape[0]}x{mask.shape[1]}, but its image "
                        f"{image_path} is {image.shape[1]}x{image.shape[2]}")
    return image, mask


def check_split(index: DatasetIndex, split: str) -> None:
    """Refuse a split that is unknown or empty, or whose images and masks
    do not share one tile size on POOL_GRID. Only file headers are read."""
    check = _one_tile_size(split)
    for rec in index.split_records(split):
        for path in (index.image_path(rec), index.mask_path(rec)):
            check(path, imgio.image_size(path))


def batch_iter(index: DatasetIndex, split: str, batch_size: int,
               seed: int = 0, epoch: int = 0, shuffle: bool = True):
    """Yield (images (b,3,h,w), masks (b,1,h,w)) batches over one split,
    both uint8: the images' 8-bit levels, which the model's forward scales
    as imgio.read_rgb does, and {0, 1} masks.

    An unknown or empty split is refused, and so is a tile off POOL_GRID or
    of another size than the first tile decoded, as it is decoded, before
    its batch is yielded.
    Order is a pure function of (seed, epoch); the final short batch is
    yielded as-is. With shuffle=False records come in index order and seed
    and epoch are ignored.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    records = index.split_records(split)
    check = _one_tile_size(split)
    order = np.arange(len(records))
    if shuffle:
        order = derive_rng(seed, 0, epoch).permutation(len(records))
    for start in range(0, len(records), batch_size):
        yield _load_batch(index, [records[i] for i in order[start:start + batch_size]], check)


def _load_batch(index: DatasetIndex, records, check) -> tuple:
    """The stacked (images, masks) of `records`, each image's size passed to
    `check` first. The per-sample arrays go with this frame, so a caller
    holding the batch holds it once."""
    images, masks = zip(*(load_pair(index, record) for record in records))
    for record, image in zip(records, images):
        check(index.image_path(record), image.shape[1:])
    return np.stack(images), np.stack(masks)[:, None]


# ---------------------------------------------------------------------------
# Synthetic fixtures

def synth_pair(size: int, rng) -> tuple:
    """One synthetic (image, mask) sample: bright axis-aligned rectangles on
    dark noise.

    Rectangle sides are 10% to 30% of the image side, so even five rectangles
    cover under half the area. Rectangle pixels are at least 0.65 in every
    channel and background pixels stay below 0.45, so the mask is exactly
    the set of pixels whose darkest channel is at least 0.65.
    """
    noise = rng.random((3, size, size))
    image = (0.05 + 0.40 * noise).astype(np.float32)
    mask = np.zeros((size, size), dtype=np.float32)
    for _ in range(int(rng.integers(1, 6))):
        rh = max(1, int(rng.uniform(0.1, 0.3) * size))
        rw = max(1, int(rng.uniform(0.1, 0.3) * size))
        top = int(rng.integers(0, size - rh + 1))
        left = int(rng.integers(0, size - rw + 1))
        base = rng.uniform(0.65, 0.9)
        fill = base + 0.1 * rng.random((3, rh, rw))
        image[:, top:top + rh, left:left + rw] = fill.astype(np.float32)
        mask[top:top + rh, left:left + rw] = 1.0
    return image, mask


def write_synthetic_dataset(out_dir, counts: dict, size: int, seed: int) -> DatasetIndex:
    """Write a synthetic prepared layout + index; counts maps split -> n.

    Sample i (numbered across splits in SPLITS order) depends only on
    (seed, i).
    """
    _check_pool_grid("synthetic image size", (size, size))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for split in SPLITS:
        for _ in range(counts.get(split, 0)):
            i = len(records)
            rec = _record(split, f"synth_{i:05d}.png")
            _write_pair(out, rec, *synth_pair(size, derive_rng(seed, 2, i)))
            records.append(rec)
    index = DatasetIndex(root=out, records=records)
    save_index(index, out / "index.tsv")
    return index


# ---------------------------------------------------------------------------
# Preparation pipeline

def prepare_dataset(input_dir, output_dir, tile: int = 500, target=TARGET_SIZE,
                    min_fg: float = 0.01, max_fg: float = 0.90,
                    overwrite: bool = False) -> dict:
    """Run the full pipeline over a raw scene layout.

    Raw layout mirrors the prepared one: `<input>/<split>/images/*` with
    like-named masks under `<input>/<split>/masks/`. Every scene's mask must
    match its image and both sides must divide by `tile`, and `tile` must
    not be below `target`; this is checked from the headers of all scenes
    before anything is removed or written.
    Each scene is tiled;
    a tile whose mask foreground fraction lies in [min_fg, max_fg] (both
    ends inclusive) is resized to `target` and written as an 8-bit PNG pair
    named `<scene stem>_r<row>c<col>.png`, any other is logged with its
    fraction to `rejects.tsv`. `index.tsv` and `rejects.tsv` are written at
    the output root even when every tile is rejected. With `overwrite`, the
    `<split>/images` and `<split>/masks` trees and the two TSVs of an earlier
    run are removed first; other files in the output directory stay, and an
    input scene lying under one of those trees is refused.

    Returns per-split counts: {split: {"kept": k, "rejected": r}}.
    """
    if not (0.0 <= min_fg < max_fg <= 1.0):
        raise ConfigError(
            f"foreground band must satisfy 0 <= min < max <= 1, got [{min_fg}, {max_fg}]"
        )
    if tile < 1:
        raise ConfigError(f"tile size must be >= 1, got {tile}")
    _check_pool_grid("target size", target)
    inp = Path(input_dir)
    out = Path(output_dir)
    if not inp.is_dir():
        raise DataError(f"{inp}: input directory does not exist")
    raw = build_index(inp)
    if not raw.records:
        raise DataError(f"{inp}: no image/mask pairs found under <split>/images")
    scenes = {}  # (split, stem) -> raw record; tiles are named after the stem
    for rec in raw.records:
        stem = os.path.splitext(os.path.basename(rec.image))[0]
        first = scenes.setdefault((rec.split, stem), rec)
        if first is not rec:
            raise DataError(
                f"{first.image} and {rec.image} share the name {stem!r}, so their "
                "tiles would overwrite each other; rename one"
            )
    # every scene is checked from its headers before anything is removed or written
    for rec in scenes.values():
        size = imgio.image_size(raw.image_path(rec))
        mask_size = imgio.image_size(raw.mask_path(rec))
        try:
            if mask_size != size:
                raise DataError(f"its mask {rec.mask} is {mask_size[0]}x{mask_size[1]}, "
                                f"the image {size[0]}x{size[1]}")
            _check_tiling(size, tile)
        except DataError as exc:
            raise DataError(f"{rec.image}: {exc}") from None
    if tile < max(target):
        raise ConfigError(f"tile size {tile} is below target size {target[0]}x{target[1]}; "
                          "tiles are resized down, never up")
    if out.exists() and any(out.iterdir()):
        if not overwrite:
            raise ConfigError(f"{out} already has content; pass overwrite to replace it")
        # a previous run's tiles that this run does not produce must not stay listed on disk
        doomed = [out / split / sub for split in SPLITS for sub in ("images", "masks")]
        for rec in raw.records:
            for scene in (raw.image_path(rec), raw.mask_path(rec)):
                for tree in doomed:
                    if scene.resolve().is_relative_to(tree.resolve()):
                        raise ConfigError(
                            f"input {scene} lies under {tree}, which overwrite would "
                            "remove; write the tiles elsewhere"
                        )
        for tree in doomed:
            if tree.exists():
                shutil.rmtree(tree)
        for name in ("index.tsv", "rejects.tsv"):
            (out / name).unlink(missing_ok=True)

    out.mkdir(parents=True, exist_ok=True)
    records = []
    reject_rows = []
    summary = {s: {"kept": 0, "rejected": 0} for s in SPLITS}
    for (split, stem), rec in scenes.items():
        image, mask = load_pair(raw, rec)
        cols = mask.shape[1] // tile
        for i, (t_image, t_mask) in enumerate(tile_image(image, mask, tile)):
            tile_rec = _record(split, f"{stem}_r{i // cols}c{i % cols}.png")
            frac = foreground_fraction(t_mask)
            if min_fg <= frac <= max_fg:
                t_image = imgio.to_float(t_image)
                _write_pair(out, tile_rec, *resize_pair(t_image, t_mask, target))
                records.append(tile_rec)
                summary[split]["kept"] += 1
            else:
                reject_rows.append(
                    f"{tile_rec.image}\t{tile_rec.mask}\t{split}\t{frac!r}\n"
                )
                summary[split]["rejected"] += 1

    save_index(DatasetIndex(root=out, records=records), out / "index.tsv")
    with open(out / "rejects.tsv", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(reject_rows)
    return summary
