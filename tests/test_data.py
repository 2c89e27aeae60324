"""Dataset pipeline: tiling, filtering, resizing, indexes, batching,
synthetic fixtures, and the end-to-end preparation run."""

import shutil
import tracemalloc
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from lmnet import imgio
from lmnet.data import (
    DatasetIndex,
    IndexRecord,
    MASK_THRESHOLD,
    batch_iter,
    binarize_mask,
    build_index,
    check_split,
    foreground_fraction,
    load_index,
    load_pair,
    prepare_dataset,
    resize_pair,
    save_index,
    synth_pair,
    tile_image,
    write_synthetic_dataset,
)
from lmnet.errors import ConfigError, DataError
from lmnet.seeding import derive_rng

from oracles import (
    fg_fraction_naive,
    resize_bilinear_naive,
    resize_nearest_naive,
    tile_naive,
)


def random_pair(rng, h, w):
    """An (image (3, h, w), binary mask (h, w)) sample of random pixels."""
    image = rng.random((3, h, w)).astype(np.float32)
    mask = (rng.random((h, w)) > 0.5).astype(np.float32)
    return image, mask


def write_layout_pair(root, split, name, image, mask):
    """Write an image (3, h, w) and its mask (h, w) as `name` in the
    `<split>/images|masks` layout under `root`."""
    for sub in ("images", "masks"):
        (root / split / sub).mkdir(parents=True, exist_ok=True)
    imgio.write_rgb(root / split / "images" / name, image)
    imgio.write_gray(root / split / "masks" / name, mask)


# -- tiling -----------------------------------------------------------------

def test_full_scene_tiles_and_reassembles_bit_exact(tmp_path, rng):
    # 1536 = 3 x 512 keeps the tiles on the pooling grid, so the target can
    # equal the tile and no pixel is resampled; 8-bit levels survive PNG.
    image = rng.integers(0, 256, (3, 1536, 1536)).astype(np.float32) / np.float32(255)
    mask = (rng.random((1536, 1536)) > 0.5).astype(np.float32)
    write_layout_pair(tmp_path / "raw", "train", "scene.ppm", image, mask)
    out = tmp_path / "out"
    summary = prepare_dataset(tmp_path / "raw", out, tile=512, target=(512, 512),
                              min_fg=0.0, max_fg=1.0)
    assert summary["train"] == {"kept": 9, "rejected": 0}
    index = load_index(out / "index.tsv")
    by_name = {r.image: load_pair(index, r) for r in index.records}
    grid = [[by_name[f"train/images/scene_r{r}c{c}.png"] for c in range(3)]
            for r in range(3)]
    assert all(t_image.shape[1:] == (512, 512) for row in grid for t_image, _ in row)
    npt.assert_array_equal(np.block([[t_image for t_image, _ in row] for row in grid]), image)
    npt.assert_array_equal(np.block([[t_mask for _, t_mask in row] for row in grid]), mask)


def test_tile_contents_match_plain_slicing(rng):
    image, mask = random_pair(rng, 12, 20)
    tiles = tile_image(image, mask, 4)
    naive = tile_naive(image, 4)
    assert len(tiles) == len(naive) == 15
    for (t_image, _), n in zip(tiles, naive):
        npt.assert_array_equal(t_image, n)
    npt.assert_array_equal(tiles[0][0], image[..., :4, :4])


def test_tile_refuses_non_divisible_dims_naming_the_axis(rng):
    with pytest.raises(DataError, match="height 10"):
        tile_image(*random_pair(rng, 10, 12), 4)
    with pytest.raises(DataError, match="width 10"):
        tile_image(*random_pair(rng, 12, 10), 4)


# -- foreground filtering ---------------------------------------------------

def _prepare_row(tmp_path, tile_masks, min_fg, max_fg):
    """Prepare one scene made of square `tile_masks` side by side.

    Returns (kept image paths from index.tsv, {rejected image path: fraction}
    from rejects.tsv); tile i of the row is `train/images/s_r0c{i}.png`.
    """
    mask = np.concatenate(tile_masks, axis=1)
    write_layout_pair(tmp_path / "raw", "train", "s.png",
                      np.zeros((3, *mask.shape), np.float32), mask)
    out = tmp_path / "out"
    prepare_dataset(tmp_path / "raw", out, tile=mask.shape[0], target=(8, 8),
                    min_fg=min_fg, max_fg=max_fg)
    kept = [r.image for r in load_index(out / "index.tsv").records]
    rejected = {}
    for line in (out / "rejects.tsv").read_text().splitlines():
        image, _, _, frac = line.split("\t")
        rejected[image] = float(frac)
    return kept, rejected


def _mask_with_fraction(ones: int, side: int = 8) -> np.ndarray:
    mask = np.zeros((side, side), dtype=np.float32)
    mask.reshape(-1)[:ones] = 1.0
    return mask


def test_filter_band_ends_are_inclusive(tmp_path):
    # 8x8 tiles: fractions k/64 land exactly on the band edges
    masks = [_mask_with_fraction(k) for k in (0, 1, 16, 57, 58)]
    kept, rejected = _prepare_row(tmp_path, masks, min_fg=1 / 64, max_fg=57 / 64)
    name = "train/images/s_r0c{}.png".format
    assert kept == [name(1), name(2), name(3)]  # fractions 1/64, 16/64, 57/64
    assert rejected == {name(0): 0.0, name(4): 58 / 64}


def test_filter_matches_brute_force(tmp_path, rng):
    # random 6x6 masks with every pixel doubled: 12x12 tiles, same fractions
    masks = [np.kron(random_pair(rng, 6, 6)[1], np.ones((2, 2), np.float32))
             for _ in range(40)]
    # the random fractions all fall inside the band; these four fall outside:
    # empty, full, and one pixel past each end (0.3 * 144 = 43.2, 0.7 * 144 = 100.8)
    masks += [_mask_with_fraction(k, side=12) for k in (0, 144, 43, 101)]
    kept, rejected = _prepare_row(tmp_path, masks, 0.3, 0.7)
    for i, mask in enumerate(masks):
        frac = fg_fraction_naive(mask)
        name = f"train/images/s_r0c{i}.png"
        in_band = 0.3 <= frac <= 0.7
        assert (name in kept) == in_band, f"tile {i} frac {frac}"
        assert rejected.get(name) == (None if in_band else frac), f"tile {i}"
    assert len(kept) + len(rejected) == 44
    assert len(rejected) >= 4


def test_prepare_with_every_tile_rejected_still_writes_both_files(tmp_path):
    kept, rejected = _prepare_row(tmp_path, [_mask_with_fraction(0)] * 2, 0.5, 1.0)
    assert kept == []
    assert rejected == {"train/images/s_r0c0.png": 0.0, "train/images/s_r0c1.png": 0.0}


def test_foreground_fraction_counts_nonzero(rng):
    mask = (rng.random((1, 1, 9, 9)) > 0.8).astype(np.float32)
    assert foreground_fraction(mask) == fg_fraction_naive(mask)


# -- mask binarization ------------------------------------------------------

def test_binarize_boundary_sits_at_mid_gray():
    levels = np.array([0, 100, 127, 128, 200, 255], dtype=np.float32) / np.float32(255)
    npt.assert_array_equal(binarize_mask(levels), [0, 0, 0, 1, 1, 1])


def test_binarize_threshold_is_exact_for_8bit_files(tmp_path):
    raw = np.array([[127, 128], [0, 255]], dtype=np.float32) / np.float32(255)
    path = tmp_path / "m.png"
    imgio.write_gray(path, raw)
    back = binarize_mask(imgio.read_gray(path))
    npt.assert_array_equal(back, [[0, 1], [0, 1]])
    assert MASK_THRESHOLD == 128 / 255


# -- resizing ---------------------------------------------------------------

def test_resize_to_same_size_is_identity(rng):
    image, mask = random_pair(rng, 24, 24)
    out_image, out_mask = resize_pair(image, mask, (24, 24))
    npt.assert_array_equal(out_image, image)
    npt.assert_array_equal(out_mask, mask)


def test_resize_constant_image_stays_constant():
    image = np.full((3, 100, 100), np.float32(0.37))
    mask = np.ones((100, 100), dtype=np.float32)
    out_image, out_mask = resize_pair(image, mask, (48, 48))
    npt.assert_array_equal(out_image, np.full((3, 48, 48), np.float32(0.37)))
    npt.assert_array_equal(out_mask, 1.0)


def test_resize_matches_naive_formulas(rng):
    image, mask = random_pair(rng, 50, 40)
    out_image, out_mask = resize_pair(image, mask, (19, 17))
    npt.assert_allclose(
        out_image.astype(np.float64),
        resize_bilinear_naive(image, 19, 17),
        rtol=0, atol=1e-6,  # float32 storage of identical math
    )
    npt.assert_array_equal(out_mask, resize_nearest_naive(mask, 19, 17))


def test_resize_checkerboard_mask_stays_binary_and_balanced():
    yy, xx = np.mgrid[0:500, 0:500]
    mask = ((yy + xx) % 2).astype(np.float32)
    image = np.broadcast_to(mask, (3, 500, 500)).copy()
    _, out_mask = resize_pair(image, mask, (192, 192))
    vals = np.unique(out_mask)
    assert set(vals.tolist()) <= {0.0, 1.0}
    assert abs(foreground_fraction(out_mask) - 0.5) < 0.05


def test_resize_refuses_upscale(rng):
    with pytest.raises(DataError, match="upscal"):
        resize_pair(*random_pair(rng, 100, 100), (192, 192))


# -- index files ------------------------------------------------------------

def _layout(tmp_path, entries):
    """entries: (split, name, size) triples; writes image+mask PNGs."""
    rng = np.random.default_rng(0)
    for split, name, size in entries:
        write_layout_pair(tmp_path, split, name, *random_pair(rng, size, size))


def test_build_save_load_round_trip(tmp_path):
    _layout(tmp_path, [("train", "a.png", 16), ("train", "b.png", 16),
                       ("val", "c.png", 16)])
    index = build_index(tmp_path)
    assert Counter(r.split for r in index.records) == {"train": 2, "val": 1}
    save_index(index, tmp_path / "index.tsv")
    again = load_index(tmp_path / "index.tsv")
    assert again.records == index.records
    assert again.root == tmp_path
    text = (tmp_path / "index.tsv").read_text()
    assert text.splitlines()[0] == "train/images/a.png\ttrain/masks/a.png\ttrain"


def test_build_index_reports_orphans(tmp_path):
    _layout(tmp_path, [("train", "a.png", 8)])
    (tmp_path / "train" / "masks" / "a.png").unlink()
    with pytest.raises(DataError, match="a.png"):
        build_index(tmp_path)


def test_load_index_validates_with_line_numbers(tmp_path):
    _layout(tmp_path, [("train", "a.png", 8)])
    good = "train/images/a.png\ttrain/masks/a.png\ttrain\n"

    path = tmp_path / "index.tsv"
    path.write_text(good + "train/images/a.png\ttrain/masks/a.png\ttrain\n")
    with pytest.raises(DataError, match=":2.*duplicate"):
        load_index(path)

    path.write_text(good.replace("train\n", "holdout\n"))
    with pytest.raises(DataError, match="unknown split"):
        load_index(path)

    path.write_text("only two\tfields\n")
    with pytest.raises(DataError, match=":1.*3 tab-separated"):
        load_index(path)

    path.write_text("train/images/gone.png\ttrain/masks/a.png\ttrain\n")
    with pytest.raises(DataError, match="gone.png is missing"):
        load_index(path)

    with pytest.raises(DataError, match="does not exist"):
        load_index(tmp_path / "absent.tsv")


def test_load_pair_binarizes_mid_gray_mask(tmp_path):
    (tmp_path / "train" / "images").mkdir(parents=True)
    (tmp_path / "train" / "masks").mkdir(parents=True)
    imgio.write_rgb(tmp_path / "train/images/a.png", np.zeros((3, 4, 2), np.float32))
    imgio.write_gray(tmp_path / "train/masks/a.png",
                     np.array([[100, 200]] * 2 + [[0, 255]] * 2, np.float32) / 255)
    index = build_index(tmp_path)
    _, mask = load_pair(index, index.records[0])
    npt.assert_array_equal(mask[:, 0], [0, 0, 0, 0])
    npt.assert_array_equal(mask[:, 1], [1, 1, 1, 1])


def test_load_pair_names_both_files_when_their_sizes_differ(tmp_path):
    write_layout_pair(tmp_path, "train", "a.png", np.zeros((3, 8, 8), np.float32),
                      np.zeros((8, 16), np.float32))
    index = build_index(tmp_path)
    with pytest.raises(DataError) as err:
        load_pair(index, index.records[0])
    text = str(err.value)
    assert str(tmp_path / "train/masks/a.png") + " is 8x16" in text
    assert str(tmp_path / "train/images/a.png") + " is 8x8" in text


# -- batching ---------------------------------------------------------------

def test_batch_iter_is_deterministic_and_epoch_varying(tiny_dataset):
    def order(epoch):
        out = []
        for images, _ in batch_iter(tiny_dataset, "train", 3, seed=4, epoch=epoch):
            out.append(images.copy())
        return out

    a, b = order(0), order(0)
    assert len(a) == 3  # 8 records in batches of 3: 3 + 3 + 2
    assert a[-1].shape[0] == 2
    for x, y in zip(a, b):
        npt.assert_array_equal(x, y)
    c = order(1)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_batch_iter_covers_every_record_exactly_once(tiny_dataset):
    seen = []
    for images, masks in batch_iter(tiny_dataset, "train", 3, seed=9, epoch=2):
        assert images.shape[1:] == (3, 16, 16)
        assert masks.shape[1:] == (1, 16, 16)
        seen.extend(images.sum(axis=(1, 2, 3)).tolist())
    plain = []
    for images, _ in batch_iter(tiny_dataset, "train", 8, shuffle=False):
        plain.extend(images.sum(axis=(1, 2, 3)).tolist())
    assert sorted(seen) == sorted(plain)
    assert len(seen) == 8


def test_batch_iter_unshuffled_follows_index_order(tiny_dataset):
    """Unshuffled batches come in index order and hold 8-bit images and
    {0, 1} masks: each record's image levels, which scale to the float32
    image load_pair reads, and its binarized mask."""
    recs = tiny_dataset.split_records("val")
    batches = list(batch_iter(tiny_dataset, "val", 1, shuffle=False))
    assert len(batches) == len(recs)
    for (images, masks), rec in zip(batches, recs):
        image, mask = load_pair(tiny_dataset, rec)
        assert images.dtype == masks.dtype == np.uint8
        npt.assert_array_equal(imgio.to_float(images), image[None])
        npt.assert_array_equal(masks, mask[None, None])


def test_a_batch_the_caller_holds_is_held_once(tmp_path):
    """While the caller holds a batch, the traced memory holds its stacked
    arrays and no more: a suspended frame that kept the decoded samples
    would hold the batch twice."""
    index = write_synthetic_dataset(tmp_path, {"train": 4}, size=64, seed=5)
    batches = batch_iter(index, "train", 4, shuffle=False)
    tracemalloc.start()
    try:
        images, masks = next(batches)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    batch = images.nbytes + masks.nbytes
    assert batch <= held < batch + (64 << 10)


def test_batch_iter_validates_batch_size(tiny_dataset):
    with pytest.raises(ConfigError):
        list(batch_iter(tiny_dataset, "train", 0))


def test_batch_iter_rejects_mixed_sizes(tmp_path):
    """batch_iter refuses a tile of another size than the split's first as
    it decodes it."""
    _layout(tmp_path, [("train", "a.png", 16), ("train", "b.png", 24)])
    batches = batch_iter(build_index(tmp_path), "train", 1, shuffle=False)
    next(batches)
    with pytest.raises(DataError, match=r"b\.png is 24x24, but the first image of split "
                                        r"'train', .*a\.png, is 16x16"):
        next(batches)


@pytest.mark.parametrize("read", ["headers", "decoded"])
def test_a_split_off_the_pooling_grid_is_refused(tmp_path, read):
    """check_split reads a split's file headers, batch_iter its decoded
    tiles; either refuses a first tile off the pooling grid, naming it."""
    _layout(tmp_path, [("train", "a.png", 20), ("train", "b.png", 20)])
    index = build_index(tmp_path)
    with pytest.raises(DataError, match=r"a\.png: tile size 20x20 must be at least 8 and "
                                        "divisible by 8"):
        if read == "headers":
            check_split(index, "train")
        else:
            next(batch_iter(index, "train", 2, shuffle=False))


# -- synthetic samples ------------------------------------------------------

def test_synth_is_a_pure_function_of_seed():
    a = [synth_pair(32, derive_rng(7, 2, i)) for i in range(3)]
    b = [synth_pair(32, derive_rng(7, 2, i)) for i in range(3)]
    for (x_image, x_mask), (y_image, y_mask) in zip(a, b):
        npt.assert_array_equal(x_image, y_image)
        npt.assert_array_equal(x_mask, y_mask)
    c_image, _ = synth_pair(32, derive_rng(8, 2, 0))
    assert not np.array_equal(a[0][0], c_image)


def test_synth_foreground_stays_in_the_useful_band():
    for i in range(100):
        _, mask = synth_pair(32, derive_rng(123, 2, i))
        frac = foreground_fraction(mask)
        assert 0.0 < frac <= 0.5, f"sample {i}: {frac}"


def test_synth_rectangles_are_brighter_than_background():
    image, mask = synth_pair(64, derive_rng(5, 2, 0))
    # the mask is exactly the union of the rectangles, all channels >= 0.65
    assert mask.any()
    npt.assert_array_equal(mask, image.min(axis=0) >= 0.65)
    outside = image[:, mask == 0]
    assert float(outside.max()) < 0.46


def test_synth_rejects_sizes_off_the_pool_grid(tmp_path):
    with pytest.raises(ConfigError, match="divisible by 8"):
        write_synthetic_dataset(tmp_path / "d", {"train": 1}, 30, seed=0)
    assert not (tmp_path / "d").exists()


def test_write_synthetic_dataset_round_trips(tmp_path):
    index = write_synthetic_dataset(tmp_path, {"train": 3, "val": 2}, 16, seed=9)
    assert Counter(r.split for r in index.records) == {"train": 3, "val": 2}
    names = [r.image for r in index.records]
    assert len(set(names)) == 5  # numbering continues across splits
    assert names[0] == "train/images/synth_00000.png"
    assert names[3] == "val/images/synth_00003.png"
    reloaded = load_index(tmp_path / "index.tsv")
    assert reloaded.records == index.records
    image, mask = load_pair(index, index.records[0])
    direct_image, direct_mask = synth_pair(16, derive_rng(9, 2, 0))
    # PNG quantization moves values by at most half a level
    npt.assert_allclose(image, direct_image, atol=0.5 / 255 + 1e-6)
    npt.assert_array_equal(mask, direct_mask)


# -- preparation pipeline ---------------------------------------------------

def _scene_layout(tmp_path):
    """One 24x24 train scene whose 8x8 tiles have controlled fractions."""
    rng = np.random.default_rng(3)
    image = rng.random((3, 24, 24)).astype(np.float32)
    mask = np.zeros((24, 24), dtype=np.float32)
    mask[:8, :8] = 1.0          # tile r0c0: fraction 1.0 -> rejected (> 0.9)
    mask[:8, 8:16] = 0.0        # tile r0c1: fraction 0.0 -> rejected (< min)
    mask[:4, 16:] = 1.0         # tile r0c2: 0.5 -> kept
    mask[8:16, ::2] = 1.0       # row 1 tiles: 0.5 -> kept
    mask[16:, :2] = 1.0         # row 2 tiles: 0.25 each -> kept
    mask[16:, 8:10] = 1.0
    mask[16:, 16:18] = 1.0
    write_layout_pair(tmp_path / "raw", "train", "scene.png", image, mask)
    return tmp_path / "raw"


def test_prepare_filters_tiles_and_writes_index(tmp_path):
    raw = _scene_layout(tmp_path)
    out = tmp_path / "prepared"
    summary = prepare_dataset(raw, out, tile=8, target=(8, 8), min_fg=0.05, max_fg=0.9)
    assert summary["train"] == {"kept": 7, "rejected": 2}
    assert summary["val"] == {"kept": 0, "rejected": 0}

    index = load_index(out / "index.tsv")
    assert len(index.records) == 7
    names = {r.image for r in index.records}
    assert "train/images/scene_r0c2.png" in names
    assert "train/images/scene_r0c0.png" not in names

    rejects = (out / "rejects.tsv").read_text().splitlines()
    assert len(rejects) == 2
    fields = rejects[0].split("\t")
    assert len(fields) == 4
    assert fields[0] == "train/images/scene_r0c0.png"
    assert float(fields[3]) == 1.0

    # tile target == tile size, so kept pixels survive the resize untouched
    image, _ = load_pair(index, index.records[0])
    assert image.shape[1:] == (8, 8)


def test_prepare_refuses_nonempty_output_without_overwrite(tmp_path):
    raw = _scene_layout(tmp_path)
    out = tmp_path / "prepared"
    prepare_dataset(raw, out, tile=8, target=(8, 8))
    with pytest.raises(ConfigError, match="overwrite"):
        prepare_dataset(raw, out, tile=8, target=(8, 8))
    summary = prepare_dataset(raw, out, tile=8, target=(8, 8), overwrite=True)
    assert summary["train"]["kept"] == 7


def test_overwrite_leaves_exactly_the_indexed_tiles(tmp_path):
    raw = tmp_path / "raw"
    mask = np.zeros((16, 16), np.float32)
    mask[:, :8] = 1.0
    write_layout_pair(raw, "train", "s.png", np.zeros((3, 16, 16), np.float32), mask)
    out = tmp_path / "prepared"
    prepare_dataset(raw, out, tile=8, target=(8, 8), min_fg=0.0, max_fg=1.0)
    (out / "notes.txt").write_text("kept\n")
    prepare_dataset(raw, out, tile=16, target=(8, 8), min_fg=0.0, max_fg=1.0,
                    overwrite=True)
    records = load_index(out / "index.tsv").records
    assert [r.image for r in records] == ["train/images/s_r0c0.png"]
    on_disk = sorted(p.relative_to(out).as_posix() for p in out.glob("*/*/*"))
    assert on_disk == sorted(p for r in records for p in (r.image, r.mask))
    assert (out / "notes.txt").read_text() == "kept\n"


def test_prepare_refuses_to_overwrite_its_input(tmp_path):
    raw = _scene_layout(tmp_path)
    before = sorted(raw.rglob("*"))
    with pytest.raises(ConfigError, match="which overwrite would remove"):
        prepare_dataset(raw, raw, tile=8, target=(8, 8), overwrite=True)
    assert sorted(raw.rglob("*")) == before
    # an input nested inside a tree that overwrite removes: out/train/images
    # holds the raw layout, so its scenes sit under out/train/images/train/images
    out = tmp_path / "out"
    nested = out / "train" / "images"
    shutil.copytree(raw, nested)
    before = sorted(out.rglob("*"))
    with pytest.raises(ConfigError, match="which overwrite would remove"):
        prepare_dataset(nested, out, tile=8, target=(8, 8), overwrite=True)
    assert sorted(out.rglob("*")) == before


def test_prepare_input_validation(tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        prepare_dataset(tmp_path / "missing", tmp_path / "out", tile=8)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataError, match="no image/mask pairs"):
        prepare_dataset(empty, tmp_path / "out", tile=8)
    raw = _scene_layout(tmp_path)
    for kwargs, match in (
        (dict(min_fg=0.9, max_fg=0.1), "band"),
        (dict(min_fg=0.5, max_fg=0.5), "band"),
        (dict(min_fg=-0.1, max_fg=0.5), "band"),
        (dict(tile=0), "tile size must be >= 1, got 0"),
        (dict(tile=-8), "tile size must be >= 1, got -8"),
        (dict(target=(0, 0)), "target size 0x0 must be at least 8"),
        (dict(target=(12, 12)), "target size 12x12 .*divisible by 8"),
        (dict(target=(16, 4)), "target size 16x4"),
    ):
        kwargs = dict(tile=8, target=(8, 8)) | kwargs
        with pytest.raises(ConfigError, match=match):
            prepare_dataset(raw, tmp_path / "out", **kwargs)
        assert not (tmp_path / "out").exists(), kwargs


def test_prepare_refuses_scenes_that_share_a_stem(tmp_path):
    raw = _scene_layout(tmp_path)
    write_layout_pair(raw, "train", "scene.ppm",
                      imgio.read_rgb(raw / "train/images/scene.png"),
                      imgio.read_gray(raw / "train/masks/scene.png"))
    with pytest.raises(DataError, match=r"train/images/scene\.png and "
                                        r"train/images/scene\.ppm share the name"):
        prepare_dataset(raw, tmp_path / "out", tile=8, target=(8, 8))
    assert not (tmp_path / "out").exists()


def test_prepare_names_scene_in_tiling_errors(tmp_path):
    raw = _scene_layout(tmp_path)
    with pytest.raises(DataError, match="scene.png.*not divisible"):
        prepare_dataset(raw, tmp_path / "out", tile=7)
