"""Image round trips through PNG and netpbm, plus decode error handling."""

import struct
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from lmnet import imgio
from lmnet.errors import DataError
from lmnet.imgio import read_gray, read_rgb, to_float, write_gray, write_rgb


def eight_bit_grid(shape, seed=0):
    """Values exactly on the 8-bit lattice so a round trip is lossless."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape).astype(np.float32) / np.float32(255.0)


@pytest.mark.parametrize("ext", ["png", "ppm"])
def test_rgb_round_trip_is_exact_on_the_lattice(tmp_path, ext):
    img = eight_bit_grid((3, 7, 9))
    path = tmp_path / f"img.{ext}"
    write_rgb(path, img)
    back = read_rgb(path)
    assert back.dtype == np.float32 and back.shape == (3, 7, 9)
    npt.assert_array_equal(back, img)


@pytest.mark.parametrize("ext", ["png", "pgm"])
def test_gray_round_trip_is_exact_on_the_lattice(tmp_path, ext):
    img = eight_bit_grid((5, 6), seed=1)
    path = tmp_path / f"mask.{ext}"
    write_gray(path, img)
    back = read_gray(path)
    assert back.dtype == np.float32 and back.shape == (5, 6)
    npt.assert_array_equal(back, img)


def test_write_clips_out_of_range_values(tmp_path):
    img = np.array([[-0.5, 0.0], [1.0, 1.5]], dtype=np.float32)
    path = tmp_path / "clip.pgm"
    write_gray(path, img)
    back = read_gray(path)
    npt.assert_array_equal(back, [[0.0, 0.0], [1.0, 1.0]])


def test_gray_read_of_color_image_averages_channels(tmp_path):
    img = np.zeros((3, 2, 2), dtype=np.float32)
    img[0] = 1.0  # pure red
    path = tmp_path / "red.ppm"
    write_rgb(path, img)
    npt.assert_allclose(read_gray(path), np.full((2, 2), 1 / 3), atol=1e-6)


def test_rgb_read_of_gray_image_stacks_channels(tmp_path):
    img = eight_bit_grid((4, 4), seed=2)
    path = tmp_path / "g.pgm"
    write_gray(path, img)
    back = read_rgb(path)
    assert back.shape == (3, 4, 4)
    npt.assert_array_equal(back[0], back[1])
    npt.assert_array_equal(back[1], back[2])



@pytest.mark.parametrize("ext", ["ppm", "pgm"])
def test_read_rgb_holds_one_float32_copy_of_the_scene(tmp_path, ext):
    """The uint8 planes go straight into the float32 result: the traced peak
    is the result and the file's bytes, with no second float32 copy, and
    each value is its uint8 level over 255 in float32, gray stacked thrice."""
    h, w = 256, 320
    levels = np.random.default_rng(3).integers(0, 256, size=(3, h, w) if ext == "ppm" else (h, w))
    path = tmp_path / f"scene.{ext}"
    (write_rgb if ext == "ppm" else write_gray)(path, levels / 255.0)
    tracemalloc.start()
    try:
        out = read_rgb(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.broadcast_to(levels.astype(np.float32) / np.float32(255.0), (3, h, w))
    assert out.dtype == np.float32 and out.flags.c_contiguous
    assert out.tobytes() == want.tobytes()
    assert peak <= out.nbytes + path.stat().st_size + (64 << 10)

@pytest.mark.parametrize("ext", ["png", "ppm", "pgm"])
def test_read_rgb_hands_out_the_8bit_levels_that_to_float_scales(tmp_path, ext):
    """At dtype uint8 read_rgb returns the file's levels as C-ordered (3, h,
    w) planes, gray stacked thrice, and to_float scales them to the bits of
    the float32 planes it returns by default. Another dtype is refused."""
    h, w = 24, 40
    levels = np.random.default_rng(4).integers(0, 256, size=(3, h, w) if ext != "pgm" else (h, w))
    path = tmp_path / f"scene.{ext}"
    (write_gray if ext == "pgm" else write_rgb)(path, levels / 255.0)
    planes = read_rgb(path, np.uint8)
    assert planes.dtype == np.uint8 and planes.flags.c_contiguous
    npt.assert_array_equal(planes, np.broadcast_to(levels, (3, h, w)))
    assert to_float(planes).tobytes() == read_rgb(path).tobytes()
    with pytest.raises(ValueError, match="float32 or uint8"):
        read_rgb(path, np.float64)


@pytest.mark.parametrize("ext", ["png", "pgm", "ppm"])
def test_writing_a_map_holds_no_float64_copy_of_it(tmp_path, ext):
    """A map is quantized one block of rows at a time: the traced peak of a
    write is one float64 block and a few uint8 copies of the map (the codec's
    own), where a whole float64 copy would be eight bytes a value. The file
    holds the bytes of quantizing the whole map at once."""
    shape = (3, 384, 512) if ext == "ppm" else (384, 512)
    arr = (np.random.default_rng(4).random(shape) * 1.4 - 0.2).astype(np.float32)
    arr.flat[:4] = [0.5 / 255, 1.5 / 255, -0.0, np.float32(1.0)]  # ties and bounds
    path = tmp_path / f"map.{ext}"
    tracemalloc.start()
    try:
        (write_rgb if ext == "ppm" else write_gray)(path, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    levels = arr.transpose(1, 2, 0) if ext == "ppm" else arr
    whole = np.rint(np.clip(levels.astype(np.float64), 0.0, 1.0) * 255.0).astype(np.uint8)
    ref = tmp_path / f"ref.{ext}"
    imgio._codec(ref, "write")[1](ref, whole)
    assert path.read_bytes() == ref.read_bytes()
    assert peak <= 6 * arr.size + 8 * imgio._U8_BLOCK + (64 << 10)


def test_writing_a_scene_sized_png_holds_neither_its_rows_nor_their_stream(tmp_path):
    """A 768x768 map of noise, whose zlib stream is as large as its pixels,
    writes as PNG within 1.5 MB traced: its uint8 levels, one float64
    block, and one block of rows with the compressor's state. The file
    decodes to the levels."""
    arr = np.random.default_rng(5).random((768, 768)).astype(np.float32)
    path = tmp_path / "map.png"
    tracemalloc.start()
    try:
        write_gray(path, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    npt.assert_array_equal(imgio._read_raw(path), imgio._to_u8(arr))


def test_netpbm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    back = read_gray(path)
    npt.assert_array_equal(back, np.frombuffer(payload, np.uint8).reshape(2, 3) / np.float32(255.0))


def test_netpbm_header_separators_may_be_any_whitespace_and_comments(tmp_path):
    path = tmp_path / "s.ppm"
    payload = bytes(range(18))
    path.write_bytes(b"P6\t3\r\n#a\n#b\r\n\x0b 2\x0c\n255\r" + payload)
    npt.assert_array_equal(read_rgb(path) * np.float32(255.0),
                           np.frombuffer(payload, np.uint8).reshape(2, 3, 3).transpose(2, 0, 1))


@pytest.mark.parametrize("header", [
    b"P5\n3 2", b"P5\n# no line end", b"P5\n3 x\n255\n", b"P5 3 2 255",
    b"P5 +3 2 255\n", b"# lead\nP5 3 2 255\n",
], ids=["truncated", "unterminated-comment", "non-numeric", "no-raster-separator",
        "signed-field", "comment-before-magic"])
def test_malformed_netpbm_header_is_one_data_error(tmp_path, header):
    path = tmp_path / "m.pgm"
    path.write_bytes(header + bytes(6))
    with pytest.raises(DataError, match="m.pgm: malformed netpbm header"):
        read_gray(path)


def test_netpbm_truncated_raster_is_a_data_error(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(DataError, match="raster"):
        read_gray(path)


def test_netpbm_wrong_magic_is_a_data_error(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")  # ascii variant not supported
    with pytest.raises(DataError, match="magic"):
        read_gray(path)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_rgb(tmp_path / "nope.png")


def test_corrupt_png_is_a_data_error(tmp_path):
    path = tmp_path / "bad.png"
    path.write_bytes(b"\x89PNG\r\n\x1a\nnot really a png")
    with pytest.raises(DataError, match="decode"):
        read_rgb(path)


def test_write_shape_validation():
    with pytest.raises(DataError):
        write_rgb("x.png", np.zeros((4, 4)))
    with pytest.raises(DataError):
        write_gray("x.png", np.zeros((3, 4, 4)))


# -- PNG decoder oracle -----------------------------------------------------
# The writer emits filter 0 only, so the round trips above never reach the
# Sub/Up/Average/Paeth decoders. These files are assembled by hand instead.

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def png_chunk(kind, body):
    return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", zlib.crc32(kind + body))


def png_ihdr(w, h, colour, depth=8, interlace=0):
    return png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, depth, colour, 0, 0, interlace))


def forward_filter(pixels, kinds):
    """Filter uint8 (h, w, bpp) pixels row by row as RFC 2083 section 6 says.

    Every predictor reads original pixels only, so this is independent of
    the decoder under test.
    """
    h, w, bpp = pixels.shape
    rows = pixels.reshape(h, w * bpp).astype(np.int64)
    out = []
    for r, kind in enumerate(kinds):
        x = rows[r]
        up = rows[r - 1] if r else np.zeros_like(x)
        left = np.concatenate([np.zeros(bpp, np.int64), x[:-bpp]])
        corner = np.concatenate([np.zeros(bpp, np.int64), up[:-bpp]])
        p = left + up - corner
        pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - corner)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, corner))
        predictor = [0, left, up, (left + up) // 2, paeth][kind]
        out.append(bytes([kind]) + ((x - predictor) % 256).astype(np.uint8).tobytes())
    return b"".join(out)


def assemble_png(pixels, kinds, colour, idat_parts=3):
    """A PNG whose zlib stream is split over `idat_parts` IDAT chunks."""
    h, w, _ = pixels.shape
    stream = zlib.compress(forward_filter(pixels, kinds))
    cuts = np.linspace(0, len(stream), idat_parts + 1).astype(int)
    idats = b"".join(png_chunk(b"IDAT", stream[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
    return PNG_SIGNATURE + png_ihdr(w, h, colour) + idats + png_chunk(b"IEND", b"")


FILTER_ROWS = {
    "none": [0] * 9, "sub": [1] * 9, "up": [2] * 9, "average": [3] * 9,
    "paeth": [4] * 9, "mixed": [2, 1, 4, 0, 3, 2, 4, 3, 1],
}


@pytest.mark.parametrize("width", [11, 4], ids=["wide", "tall"])
@pytest.mark.parametrize("colour", sorted(PNG_CHANNELS))
@pytest.mark.parametrize("filters", sorted(FILTER_ROWS))
def test_png_decoder_undoes_every_row_filter(tmp_path, filters, colour, width):
    kinds = FILTER_ROWS[filters]
    # Few levels at both ends of the range: predictor ties, which Paeth
    # breaks in a fixed order, and mod-256 wraparound both occur often.
    levels = np.r_[0:6, 250:256].astype(np.uint8)
    rng = np.random.default_rng(colour)
    pixels = rng.choice(levels, size=(len(kinds), width, PNG_CHANNELS[colour]))
    path = tmp_path / "hand.png"
    path.write_bytes(assemble_png(pixels, kinds, colour))
    expected = pixels.astype(np.float32) / np.float32(255.0)
    if colour in (2, 6):
        npt.assert_array_equal(read_rgb(path), expected[:, :, :3].transpose(2, 0, 1))
    else:
        npt.assert_array_equal(read_gray(path), expected[:, :, 0])


def _valid_png():
    pixels = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
    return assemble_png(pixels, [0, 1, 2, 4], colour=2, idat_parts=1)


def _bad_crc():
    blob = bytearray(_valid_png())
    blob[len(PNG_SIGNATURE) + 8 + 13] ^= 0xFF  # first CRC byte of IHDR
    return bytes(blob)


def _truncated_idat():
    stream = zlib.compress(bytes(4 * 16))
    return (PNG_SIGNATURE + png_ihdr(5, 4, 2) + png_chunk(b"IDAT", stream[:len(stream) // 2])
            + png_chunk(b"IEND", b""))


def _header_only(**ihdr):
    return PNG_SIGNATURE + png_ihdr(5, 4, **ihdr) + png_chunk(b"IEND", b"")


def _unknown_critical_chunk():
    blob = _valid_png()
    at = len(PNG_SIGNATURE) + 25  # right after IHDR
    return blob[:at] + png_chunk(b"ZZZZ", b"") + blob[at:]


@pytest.mark.parametrize("name, blob, match", [
    ("bad_crc.png", _bad_crc, "cannot decode.*CRC"),
    ("truncated_idat.png", _truncated_idat, "cannot decode"),
    ("truncated_file.png", lambda: _valid_png()[:-20], "cannot decode"),
    ("sixteen.png", lambda: _header_only(colour=2, depth=16), "bit depth 16.*convert"),
    ("interlaced.png", lambda: _header_only(colour=2, interlace=1), "interlaced.*convert"),
    ("palette.png", lambda: _header_only(colour=3), "palette.*convert"),
    ("unknown_chunk.png", _unknown_critical_chunk, "critical chunk 'ZZZZ'.*convert"),
    ("scene.tif", _valid_png, "PNG, PPM and PGM.*convert"),
    ("scene.jpg", _valid_png, "PNG, PPM and PGM.*convert"),
])
def test_unreadable_images_are_data_errors(tmp_path, name, blob, match):
    path = tmp_path / name
    path.write_bytes(blob())
    with pytest.raises(DataError, match=match):
        read_rgb(path)


def _claims_50000_square(name):
    if name.endswith(".png"):
        return (PNG_SIGNATURE + png_ihdr(50_000, 50_000, 2)
                + png_chunk(b"IDAT", zlib.compress(bytes(64))) + png_chunk(b"IEND", b""))
    return b"P5\n50000 50000\n255\n" + bytes(64)


@pytest.mark.parametrize("name", ["big.png", "big.pgm"])
def test_an_image_over_the_pixel_budget_is_refused_before_decoding(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(_claims_50000_square(name))
    with pytest.raises(DataError, match=f"{name}: a 50000x50000 image has 2500000000 pixels, "
                                        "over the decoding budget of 67108864"):
        read_gray(path)


@pytest.mark.parametrize("ext", ["png", "pgm"])
def test_the_pixel_budget_is_inclusive(tmp_path, monkeypatch, ext):
    monkeypatch.setattr(imgio, "MAX_PIXELS", 12)
    write_gray(tmp_path / f"fits.{ext}", eight_bit_grid((3, 4)))
    write_gray(tmp_path / f"over.{ext}", eight_bit_grid((3, 5)))
    assert read_gray(tmp_path / f"fits.{ext}").shape == (3, 4)
    with pytest.raises(DataError, match="a 3x5 image has 15 pixels"):
        read_gray(tmp_path / f"over.{ext}")


# -- header-only size ---------------------------------------------------------

@pytest.mark.parametrize("ext", ["png", "ppm", "pgm"])
def test_image_size_agrees_with_a_full_read(tmp_path, ext):
    path = tmp_path / f"img.{ext}"
    if ext == "pgm":
        write_gray(path, eight_bit_grid((70, 45)))
    else:
        write_rgb(path, eight_bit_grid((3, 70, 45)))
    assert imgio.image_size(path) == read_gray(path).shape == (70, 45)


def test_image_size_reads_a_netpbm_header_padded_past_its_prefix(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n" + b"# padding\n" * 1000 + b"3 2\n255\n" + bytes(6))
    assert imgio.image_size(path) == read_gray(path).shape == (2, 3)


@pytest.mark.parametrize("name, blob, match", [
    ("big.png", lambda: _claims_50000_square("big.png"), "over the decoding budget"),
    ("big.pgm", lambda: _claims_50000_square("big.pgm"), "over the decoding budget"),
    ("palette.png", lambda: _header_only(colour=3), "palette"),
    ("bad_crc.png", _bad_crc, "CRC"),
    ("m.pgm", lambda: b"P5\n3 x\n255\n", "malformed netpbm header"),
    ("scene.tif", _valid_png, "PNG, PPM and PGM"),
])
def test_image_size_makes_the_header_checks_of_a_read(tmp_path, name, blob, match):
    path = tmp_path / name
    path.write_bytes(blob())
    with pytest.raises(DataError, match=match):
        imgio.image_size(path)
    with pytest.raises(DataError, match="no such file"):
        imgio.image_size(tmp_path / "nope.png")
