"""Command-line entry point.

Subcommands wire the library together: prepare (dataset pipeline), train,
eval, predict, params (parameter census), gradcheck (finite-difference
verification). Every run echoes its fully resolved configuration before
doing work, so a run is reproducible from its log alone.

Flags may come from a `--config` file of key=value lines; explicit flags win
over the file. The echoed block is itself a valid `--config` file: both are
read and written by `kvtext`, the codec of the checkpoint text blocks too.

Exit codes: 0 success, 1 validation error (bad flags, bad config, bad
data, a path that cannot be read or written), 2 runtime failure (aborted
training, broken checkpoint, failed gradient check).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import imgio, kvtext
from .checkpoint import load_any
from .data import TARGET_SIZE, load_index, prepare_dataset
from .errors import ConfigError, DataError, LmnetError
from .gradcheck import check_graph_gradients
from .metrics import DEFAULT_THRESHOLD, render_kv, render_table
from .model import (
    POOL_GRID, GraphConfig, build_model, closed_form_param_count, parse_variant, pool_grid_problem,
)
from .train import TrainConfig, evaluate, train


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for runtime
    # failures, so usage problems are a ConfigError (exit 1).
    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


@dataclass
class Opt:
    name: str            # underscore form; the flag is --with-dashes
    type: object = str   # argparse converter, also applied to config-file values
    default: object = None
    required: bool = False
    help: str = ""


def _size(text: str):
    try:
        dims = kvtext.ints(text)
    except ValueError:
        dims = ()
    if len(dims) == 1:
        return dims * 2
    if len(dims) == 2:
        return dims
    raise argparse.ArgumentTypeError(f"size must be an integer or 'h,w', got {text!r}")


def _ints(text: str):
    try:
        return kvtext.ints(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _fraction(text: str):
    try:
        if 0.0 <= float(text) <= 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")


def _flag(text: str):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _read_config_file(path) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            return kvtext.read(fh.read())
    except ValueError as exc:  # also a file that is not UTF-8
        raise ConfigError(f"{path}: {exc}") from None


def _resolve(argv) -> tuple:
    """Parse argv into (command, resolved options).

    Precedence: explicit flag > config file > built-in default. Config-file
    values become the subcommand's defaults, so argparse converts them with
    the option's own type, as it does a flag.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    opts = _COMMANDS[args.command][0]
    if args.config:
        filed = _read_config_file(args.config)
        stray = set(filed) - {o.name for o in opts}
        if stray:
            raise ConfigError(
                f"config file keys not valid here: {', '.join(sorted(stray))}"
            )
        commands[args.command].set_defaults(**filed)
        try:
            args = parser.parse_args(argv)
        except ConfigError as exc:  # the flags parsed once, so a file value is bad
            raise ConfigError(f"{args.config}: {exc}") from None
    resolved = {o.name: getattr(args, o.name) for o in opts}
    for opt in opts:
        if opt.required and resolved[opt.name] is None:
            raise ConfigError(f"--{opt.name.replace('_', '-')} is required")
    return args.command, resolved


def _echo(command: str, resolved: dict) -> None:
    lines = kvtext.write(resolved).splitlines()
    print(f"# resolved config ({command}):", *(f"  {ln}" for ln in lines), sep="\n", flush=True)


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns an exit code (None means 0).

def _cmd_prepare(o):
    summary = prepare_dataset(
        o["input_dir"], o["output_dir"], tile=o["tile_size"],
        target=o["target_size"], min_fg=o["min_fg"], max_fg=o["max_fg"],
        overwrite=o["overwrite"],
    )
    for split in ("train", "val", "test"):
        row = summary[split]
        print(f"{split}: kept {row['kept']}, rejected {row['rejected']}")
    print(f"index written to {os.path.join(o['output_dir'], 'index.tsv')}")


def _cmd_train(o):
    cfg = TrainConfig(
        variant=parse_variant(o["variant"]),
        graph=GraphConfig(channel_sequence=o["channels"], seed=o["seed"]),
        index_path=o["index"],
        out_dir=o["out"],
        epochs=o["epochs"],
        batch_size=o["batch"],
        micro_batch=o["micro_batch"],
        lr=o["lr"],
        adam_eps=o["adam_eps"],
        seed=o["seed"],
        resume=o["resume"],
        quiet=o["quiet"],
    )
    _, history = train(cfg)
    print(f"training complete: {len(history.steps)} optimizer steps, "
          f"checkpoints and history in {o['out']}")


def _cmd_eval(o):
    graph = load_any(o["ckpt"])
    index = load_index(o["index"])
    rep = evaluate(graph, index, o["split"], o["threshold"], o["micro_batch"])
    label = graph.variant.value.capitalize()
    print(render_table([(label, rep)]), end="")
    print()
    print(render_kv(rep), end="")


def _cmd_predict(o):
    graph = load_any(o["ckpt"])
    # the 8-bit levels, which the forward scales one tile at a time
    image = imgio.read_rgb(o["image"], "uint8")
    h, w = image.shape[1:]
    h8, w8 = h - h % POOL_GRID, w - w % POOL_GRID
    problem = pool_grid_problem(f"{o['image']}: {h}x{w} is too small; its crop", (h8, w8))
    if problem:
        raise DataError(problem)
    if (h8, w8) != (h, w):
        top, left = (h - h8) // 2, (w - w8) // 2
        image = image[:, top:top + h8, left:left + w8]
        print(f"input {h}x{w} center-cropped to {h8}x{w8} "
              f"(spatial dims must be divisible by {POOL_GRID})")
    pred, _ = graph.forward(image[None], "eval")
    prob = pred[0, 0]
    prob_path = f"{o['out']}_prob.png"
    mask_path = f"{o['out']}_mask.png"
    imgio.write_gray(prob_path, prob)
    imgio.write_gray(mask_path, prob >= o["threshold"])
    print(f"probability map: {prob_path}")
    print(f"binary mask:     {mask_path}")


def _cmd_params(o):
    variant = parse_variant(o["variant"])
    config = GraphConfig(channel_sequence=o["channels"])
    graph = build_model(variant, config)
    rows = graph.layer_param_counts()
    name_w = max(5, *(len(spec.name) for spec, _ in rows))
    print(f"{'layer':<{name_w}}  {'shape':<22} {'dilation':>8}  {'params':>10}")
    for spec, n in rows:
        shape = f"{spec.in_channels}->{spec.out_channels} {spec.kernel}x{spec.kernel}"
        print(f"{spec.name:<{name_w}}  {shape:<22} {spec.dilation:>8}  {n:>10}")
    walk = graph.param_count()
    closed = closed_form_param_count(variant, config)
    print(f"{'total (graph walk)':<{name_w + 24}} {'':>8}  {walk:>10}")
    print(f"{'total (closed form)':<{name_w + 24}} {'':>8}  {closed:>10}")
    if walk != closed:
        print("error: the two counters disagree", file=sys.stderr)
        return 2
    return 0


def _cmd_gradcheck(o):
    variant = parse_variant(o["variant"])
    tolerance = 1e-5
    errors = check_graph_gradients(variant)
    name_w = max(len(n) for n in errors)
    worst = 0.0
    failed = False
    for name in sorted(errors):
        err = errors[name]
        worst = max(worst, err)
        ok = err < tolerance
        failed = failed or not ok
        print(f"{name:<{name_w}}  {err:12.3e}  {'pass' if ok else 'FAIL'}")
    print(f"worst {worst:.3e} against tolerance {tolerance:g}")
    return 2 if failed else 0


_COMMANDS = {
    "prepare": ([
        Opt("input_dir", required=True, help="raw scene layout root"),
        Opt("output_dir", required=True, help="prepared dataset root"),
        Opt("tile_size", int, 500, help="square tile side"),
        Opt("target_size", _size, TARGET_SIZE, help="training size, int or h,w"),
        Opt("min_fg", float, 0.01, help="lowest kept mask foreground fraction"),
        Opt("max_fg", float, 0.90, help="highest kept mask foreground fraction"),
        Opt("overwrite", _flag, False, help="replace existing output"),
    ], _cmd_prepare, "tile, filter, resize and index raw scenes"),
    "train": ([
        Opt("index", required=True, help="path to index.tsv"),
        Opt("out", required=True, help="run directory for checkpoints"),
        Opt("variant", required=True, help="plain|dilation|residual|proposed"),
        Opt("epochs", int, TrainConfig.epochs),
        Opt("batch", int, TrainConfig.batch_size, help="samples per optimizer step"),
        Opt("micro_batch", int, TrainConfig.micro_batch,
            help="samples per forward/backward pass"),
        Opt("lr", float, TrainConfig.lr),
        Opt("adam_eps", float, TrainConfig.adam_eps,
            help="Adam epsilon; ~1e-2 tames the scale-free first steps"),
        Opt("seed", int, TrainConfig.seed),
        Opt("channels", _ints, GraphConfig.channel_sequence, help="encoder channel widths"),
        Opt("resume", _flag, TrainConfig.resume, help="continue from last.ckpt in --out"),
        Opt("quiet", _flag, TrainConfig.quiet),
    ], _cmd_train, "run the training regime"),
    "eval": ([
        Opt("ckpt", required=True),
        Opt("index", required=True),
        Opt("split", str, "test", help="train|val|test"),
        Opt("threshold", _fraction, DEFAULT_THRESHOLD),
        Opt("micro_batch", int, TrainConfig.micro_batch),
    ], _cmd_eval, "score a checkpoint on one split"),
    "predict": ([
        Opt("ckpt", required=True),
        Opt("image", required=True),
        Opt("out", required=True, help="output path prefix"),
        Opt("threshold", _fraction, DEFAULT_THRESHOLD),
    ], _cmd_predict, "write probability map and mask for one image"),
    "params": ([
        Opt("variant", required=True),
        Opt("channels", _ints, GraphConfig.channel_sequence),
    ], _cmd_params, "per-layer parameter census"),
    "gradcheck": ([
        Opt("variant", required=True),
    ], _cmd_gradcheck, "verify analytic gradients by finite differences"),
}


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="lmnet", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (opts, _, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb)
        p.add_argument("--config", help="key=value file supplying flag defaults")
        for opt in opts:
            flag = "--" + opt.name.replace("_", "-")
            extra = dict(nargs="?", const=True, metavar="BOOL") if opt.type is _flag else {}
            p.add_argument(flag, dest=opt.name, type=opt.type, default=opt.default,
                           help=opt.help, **extra)
    return parser, sub.choices


def main(argv=None) -> int:
    try:
        command, resolved = _resolve(argv)
        _echo(command, resolved)
        return int(_COMMANDS[command][1](resolved) or 0)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LmnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a user-named path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
