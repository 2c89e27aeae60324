"""8-bit image reading and writing.

PNG, PPM (color) and PGM (grayscale) are handled natively by small built-in
codecs on zlib, struct and numpy, so the data pipeline needs no imaging
dependency. Any other format ends in a DataError that names the readable
ones. Arrays cross this boundary as floats scaled by 1/255: RGB as
(3, h, w), grayscale as (h, w), both float32 in [0, 1]; `read_rgb` also
hands RGB out as the 8-bit levels themselves, which `to_float` scales as
the readers do. Writers clip to [0, 1] and round to the nearest 8-bit level.
"""

from __future__ import annotations

import math
import os
import re
import struct
import sys
import zlib

import numpy as np

from .errors import DataError

# A header that claims more pixels than this (8192x8192) is refused before
# anything is inflated or sliced, so a small file cannot exhaust memory.
MAX_PIXELS = 2**26

# Magic, width, height and maxval, each ended by whitespace and separated by
# any further whitespace and '#' comments to the end of a line; exactly one
# whitespace byte ends the header. Leading zeros aside, a field has at most
# 18 digits, which keeps int() cheap and lies far past the pixel budget.
_NETPBM_HEADER = re.compile(rb"(P\d)\s" + rb"(?:\s|#[^\n]*\n)*0*(\d{1,18})\s" * 3)


def _check_pixel_budget(path, h, w) -> None:
    if h * w > MAX_PIXELS:
        raise DataError(
            f"{path}: a {h}x{w} image has {h * w} pixels, over the decoding "
            f"budget of {MAX_PIXELS} (MAX_PIXELS, 8192x8192)"
        )


def _netpbm_header(path, blob):
    """Check a netpbm header at the head of blob; returns (h, w, channels, end)."""
    header = _NETPBM_HEADER.match(blob)
    if header is None:
        raise DataError(f"{path}: malformed netpbm header")
    magic = header[1]
    w, h, maxval = (int(field) for field in header.groups()[1:])
    if magic not in (b"P5", b"P6"):
        raise DataError(f"{path}: unsupported netpbm magic {magic!r} (P5/P6 only)")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 is supported, found {maxval}")
    _check_pixel_budget(path, h, w)
    return h, w, 3 if magic == b"P6" else 1, header.end()


def _read_netpbm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    h, w, channels, end = _netpbm_header(path, blob)
    shape = (h, w, 3) if channels == 3 else (h, w)
    need = math.prod(shape)
    raster = blob[end:end + need]
    if len(raster) != need:
        raise DataError(
            f"{path}: raster holds {len(raster)} bytes, header promises {need}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(shape)


def _write_netpbm(path, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6" if arr.ndim == 3 else b"P5")
        fh.write(b"\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(arr).tobytes())


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# Colour type -> bytes per pixel at 8 bits per sample: gray, RGB, gray+alpha,
# RGBA. Alpha is read past and dropped.
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _png_corrupt(path, why) -> DataError:
    return DataError(f"{path}: cannot decode PNG: {why}")


def _png_chunk_at(path, blob, pos):
    """The chunk starting at pos, CRC-checked: (kind, body, end)."""
    if pos + 8 > len(blob):
        raise _png_corrupt(path, "file ends before the IEND chunk")
    length, kind = struct.unpack_from(">I4s", blob, pos)
    end = pos + 12 + length
    if end > len(blob):
        raise _png_corrupt(path, f"truncated {kind.decode('latin-1')!r} chunk")
    body = blob[pos + 8:end - 4]
    if zlib.crc32(kind + body) != struct.unpack_from(">I", blob, end - 4)[0]:
        raise _png_corrupt(path, f"CRC mismatch in {kind.decode('latin-1')!r} chunk")
    return kind, body, end


def _png_header(path, blob):
    """Check the signature and IHDR at the head of blob; returns (h, w, bpp, end)."""
    if not blob.startswith(_PNG_SIGNATURE):
        raise _png_corrupt(path, "missing PNG signature")
    kind, body, end = _png_chunk_at(path, blob, len(_PNG_SIGNATURE))
    if kind != b"IHDR" or len(body) != 13:
        raise _png_corrupt(path, "the first chunk is not a 13-byte IHDR")
    w, h, depth, colour, compression, filtering, interlace = struct.unpack(">IIBBBBB", body)
    if colour == 3:
        raise DataError(
            f"{path}: palette PNG (colour type 3) is not supported; "
            "convert it to 8-bit RGB or grayscale first"
        )
    if colour not in _PNG_CHANNELS:
        raise _png_corrupt(path, f"invalid colour type {colour}")
    if depth != 8:
        raise DataError(
            f"{path}: PNG bit depth {depth} is not supported (8 bits only); "
            "convert it to 8-bit first"
        )
    if interlace == 1:
        raise DataError(
            f"{path}: interlaced PNG is not supported; "
            "convert it to a non-interlaced image first"
        )
    if not (0 < w < 2**31 and 0 < h < 2**31) or compression or filtering or interlace:
        raise _png_corrupt(path, "invalid IHDR fields")
    _check_pixel_budget(path, h, w)
    return h, w, _PNG_CHANNELS[colour], end


def _read_png(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    h, w, bpp, pos = _png_header(path, blob)
    idat = []
    while True:
        kind, body, pos = _png_chunk_at(path, blob, pos)
        if kind == b"IDAT":
            idat.append(body)
        elif kind == b"IEND":
            break
        elif not kind[0] & 0x20 and kind != b"PLTE":
            # An uppercase first letter marks a chunk a decoder must understand.
            raise DataError(
                f"{path}: PNG critical chunk {kind.decode('latin-1')!r} is not "
                "supported; convert the image to 8-bit RGB or grayscale first"
            )

    expected = h * (1 + w * bpp)
    # Inflate at most one byte past what the header promises, so a bad
    # header or a compression bomb cannot exhaust memory.
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(b"".join(idat), min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise _png_corrupt(path, f"image data: {exc}") from None
    if len(raw) != expected or not inflater.eof:
        raise _png_corrupt(path, f"image data holds {len(raw)} bytes, the header implies {expected}")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + w * bpp)
    kinds = rows[:, 0]
    if kinds.max() > 4:
        raise _png_corrupt(path, f"unknown row filter type {kinds.max()}")
    pixels = _unfilter(kinds, rows[:, 1:], bpp).reshape(h, w, bpp)
    if bpp < 3:
        return pixels[:, :, 0]
    return pixels[:, :, :3]


def _unfilter(kinds, lines, bpp) -> np.ndarray:
    """Undo the PNG row filters (RFC 2083 section 6) on (h, w * bpp) bytes.

    None, Sub and Up rows are one numpy operation each. An Average or Paeth
    row depends on its left neighbour as just decoded, so from such a row on
    a band of up to w rows is decoded together as an anti-diagonal
    wavefront. Bands of at most w rows keep the wavefront's skewed copies
    within twice the band's size, also for tall, narrow images.
    """
    h, w = lines.shape[0], lines.shape[1] // bpp
    out = np.empty_like(lines)
    prior = np.zeros(lines.shape[1], dtype=np.uint8)
    r = 0
    while r < h:
        kind = kinds[r]
        if kind == 0:
            out[r] = lines[r]
        elif kind == 1:
            out[r] = np.cumsum(lines[r].reshape(-1, bpp), axis=0, dtype=np.uint8).ravel()
        elif kind == 2:
            out[r] = lines[r] + prior
        else:
            band = slice(r, min(r + w, h))
            out[band] = _unfilter_wavefront(kinds[band], lines[band], prior, bpp)
            r = band.stop - 1
        prior = out[r]
        r += 1
    return out


def _unfilter_wavefront(kinds, lines, prior, bpp) -> np.ndarray:
    """Decode rows of any filter type, one anti-diagonal of pixels per step.

    Pixel (r, x) needs only (r, x-1), (r-1, x) and (r-1, x-1), which all lie
    on earlier anti-diagonals d = r + x. Both planes are stored skewed, pixel
    (r, x) at [r, r + x], so every diagonal is a column slice. `recon` has
    one leading row holding `prior` (the row above the first) and two
    leading zero columns for the left and upper-left neighbours at x = 0.
    """
    h, w = lines.shape[0], lines.shape[1] // bpp
    r_idx = np.arange(h)[:, None]
    skew = r_idx + np.arange(w)
    filtered = np.zeros((h, h + w - 1, bpp), dtype=np.uint8)
    filtered[r_idx, skew] = lines.reshape(h, w, bpp)
    recon = np.zeros((h + 1, h + w + 1, bpp), dtype=np.uint8)
    recon[0, 1:w + 1] = prior.reshape(w, bpp)
    kinds = kinds.astype(np.intp)[:, None]
    for d in range(h + w - 1):
        lo, hi = max(0, d - w + 1), min(h, d + 1)
        left = recon[lo + 1:hi + 1, d + 1].astype(np.int16)
        up = recon[lo:hi, d + 1].astype(np.int16)
        corner = recon[lo:hi, d].astype(np.int16)
        pa, pb, pc = np.abs(up - corner), np.abs(left - corner), np.abs(left + up - 2 * corner)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, corner))
        predictor = np.choose(kinds[lo:hi], (0, left, up, (left + up) >> 1, paeth))
        recon[lo + 1:hi + 1, d + 2] = filtered[lo:hi, d] + predictor.astype(np.uint8)
    return recon[r_idx + 1, skew + 2].reshape(h, w * bpp)


def _png_chunk(kind: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", zlib.crc32(kind + body))


def _deflated_rows(arr: np.ndarray):
    """The zlib stream of arr's rows, each prefixed by filter byte 0, in
    pieces: the rows are formed and compressed one block of _U8_BLOCK bytes
    at a time."""
    flat = arr.reshape(arr.shape[0], -1)
    step = max(1, _U8_BLOCK // (1 + flat.shape[1]))  # rows a block
    deflate = zlib.compressobj()
    for r0 in range(0, len(flat), step):
        yield deflate.compress(np.pad(flat[r0:r0 + step], ((0, 0), (1, 0))))
    yield deflate.flush()


def _write_png(path, arr: np.ndarray) -> None:
    """Colour type 2 (RGB) or 0 (gray), filter 0 on every row, one IDAT.

    Each compressed piece is written as it comes and the IDAT length goes in
    last, so neither the filtered rows nor their zlib stream is held whole."""
    h, w = arr.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2 if arr.ndim == 3 else 0, 0, 0, 0)
    crc, length = zlib.crc32(b"IDAT"), 0
    with open(path, "wb") as fh:
        fh.write(_PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr))
        start = fh.tell()
        fh.write(b"\0\0\0\0IDAT")  # the length is known once the stream ends
        for piece in _deflated_rows(arr):
            fh.write(piece)
            crc, length = zlib.crc32(piece, crc), length + len(piece)
        fh.write(struct.pack(">I", crc) + _png_chunk(b"IEND", b""))
        fh.seek(start)
        fh.write(struct.pack(">I", length))


_CODECS = {  # extension -> (reader, writer, header parser)
    ".png": (_read_png, _write_png, _png_header),
    ".ppm": (_read_netpbm, _write_netpbm, _netpbm_header),
    ".pgm": (_read_netpbm, _write_netpbm, _netpbm_header),
}
# A header is parsed from this many leading bytes; only a netpbm header
# padded past it with comments needs the rest of the file.
_HEADER_BYTES = 4096


def _codec(path, verb):
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _CODECS:
        raise DataError(
            f"{path}: cannot {verb} {ext or 'extension-less'} files; the "
            "supported formats are PNG, PPM and PGM, so convert it first "
            "(for example `mogrify -format png`)"
        )
    return _CODECS[ext]


def _read_raw(path) -> np.ndarray:
    """Decode to uint8, (h, w) or (h, w, 3)."""
    if not os.path.isfile(path):
        raise DataError(f"{path}: no such file")
    return _codec(path, "read")[0](path)


def image_size(path) -> tuple:
    """(h, w) of an image from its header alone.

    The header gets the checks a read makes of it (format, depth, the pixel
    budget), so a file that passes would decode to this size unless its
    pixel data is damaged.
    """
    if not os.path.isfile(path):
        raise DataError(f"{path}: no such file")
    parse = _codec(path, "read")[2]
    with open(path, "rb") as fh:
        blob = fh.read(_HEADER_BYTES)
        if parse is _netpbm_header and _NETPBM_HEADER.match(blob) is None:
            blob += fh.read()  # comments may pad the header past the prefix
    return parse(path, blob)[:2]


# values converted at a time by _to_u8, and bytes of PNG rows compressed at a time
_U8_BLOCK = 1 << 16


def _to_u8(arr: np.ndarray) -> np.ndarray:
    """rint(clip(arr, 0, 1) * 255) in float64, as uint8, converted one block
    of rows at a time so no float64 copy of the whole array is held."""
    out = np.empty(arr.shape, dtype=np.uint8)
    step = max(1, _U8_BLOCK * arr.shape[0] // max(1, arr.size))  # rows a block
    for r0 in range(0, arr.shape[0], step):
        block = arr[r0:r0 + step].astype(np.float64)
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        out[r0:r0 + step] = np.rint(block, out=block)
        del block  # not held while the next block is formed
    return out


def to_float(levels: np.ndarray) -> np.ndarray:
    """8-bit levels as float32 in [0, 1]: a C-ordered float32 copy, divided
    by 255 in place. The readers scale with it, and so does an eval forward
    that is handed 8-bit planes, one tile or batch at a time."""
    out = levels.astype(np.float32, order="C")
    out /= np.float32(255.0)
    return out


def read_rgb(path, dtype=np.float32) -> np.ndarray:
    """Read any supported image as (3, h, w) planes: float32 in [0, 1], or
    at dtype uint8 the 8-bit levels the file holds, a quarter of the bytes.

    The package reads uint8; the float32 default is kept for perfbench,
    which reads its scene so. Its planes are converted into the result and
    divided in place, so the scene has one float32 copy."""
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.uint8):
        raise ValueError(f"read_rgb reads float32 or uint8 planes, not {dtype}")
    raw = _read_raw(path)
    planes = raw.transpose(2, 0, 1) if raw.ndim == 3 else np.broadcast_to(raw, (3, *raw.shape))
    return np.ascontiguousarray(planes) if dtype == np.uint8 else to_float(planes)


def read_gray(path) -> np.ndarray:
    """Read any supported image as float32 (h, w) in [0, 1]; RGB is averaged."""
    raw = _read_raw(path)
    return to_float(raw).mean(axis=2) if raw.ndim == 3 else to_float(raw)


def write_rgb(path, arr) -> None:
    """Write float (3, h, w) values in [0, 1] as an 8-bit color image."""
    arr = np.asarray(arr)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DataError(f"expected a (3, h, w) array, got shape {arr.shape}")
    _codec(path, "write")[1](path, _to_u8(arr.transpose(1, 2, 0)))


def write_gray(path, arr) -> None:
    """Write (h, w) values in [0, 1], float or bool, as an 8-bit grayscale image."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise DataError(f"expected an (h, w) array, got shape {arr.shape}")
    _codec(path, "write")[1](path, _to_u8(arr))
