#!/usr/bin/env bash
# Same bytes as REV: runs one CLI recipe with REV's code and with this
# checkout's src/, each at OPENBLAS_NUM_THREADS=1 and =2, and cmps every
# file the four runs write.
#
#   tools/same_bytes.sh REV [--full]
#
# The recipe trains proposed on 64x64 synthetic tiles, then evaluates its
# test split and predicts one tile and a 768x1024 scene; trains residual for
# one epoch and resumes it for a second; and prepares a raw layout, then
# trains plain on it. --full adds a 2-epoch 192x192 proposed train at
# micro-batch 10 and a prepare of 2000x2000 PNG and PPM scenes. REV's code
# writes the inputs once. Everything goes to a `mktemp -d` directory, which
# is removed when every file is equal; nothing is written in the checkout.
# Prints each file that differs and exits 1 if any does, else exits 0.
set -euo pipefail

usage() { echo "usage: $0 REV [--full]" >&2; exit 2; }
rev="" full=0
for arg in "$@"; do
  case "$arg" in
    --full) full=1 ;;
    -*) usage ;;
    *) [[ -z $rev ]] || usage; rev=$arg ;;
  esac
done
[[ -n $rev ]] || usage

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
keep=1  # until every file compared equal
cleanup() {
  if [[ $keep == 1 ]]; then echo "outputs kept in $work" >&2; else rm -rf "$work"; fi
}
trap cleanup EXIT
mkdir "$work/rev" "$work/change" "$work/in" "$work/run"
git -C "$repo" archive "$rev" src | tar -x -C "$work/rev"
cp -R "$repo/src" "$work/change/"

# lmnet as the side's src/ has it, never an installed copy
lmnet() { PYTHONPATH="$work/$side/src" python -m lmnet.cli "$@"; }

(cd "$work/in" && PYTHONPATH="$work/rev/src" python - "$full" <<'PY'
import sys
from pathlib import Path

import numpy as np
from lmnet.data import write_synthetic_dataset
from lmnet.imgio import write_gray, write_rgb
write_synthetic_dataset("data", {"train": 8, "val": 4, "test": 4}, size=64, seed=5)
write_rgb("scene.ppm", np.random.default_rng(7).random((3, 768, 1024)))
write_synthetic_dataset("small", {"train": 8, "val": 4}, size=32, seed=5)
write_synthetic_dataset("raw", {"train": 2, "val": 1, "test": 1}, size=64, seed=3)
if sys.argv[1] == "1":
    write_synthetic_dataset("big", {"train": 40, "val": 10}, size=192, seed=9)
    rng = np.random.default_rng(13)
    # a diagonal band of foreground, so some 500x500 tiles fall outside the kept band
    rows, cols = np.mgrid[0:2000, 0:2000]
    for split, name in (("train", "a.png"), ("train", "b.ppm"), ("val", "c.png")):
        for sub in ("images", "masks"):
            Path("scenes", split, sub).mkdir(parents=True, exist_ok=True)
        write_rgb(f"scenes/{split}/images/{name}", rng.random((3, 2000, 2000)))
        band = rows + cols < rng.uniform(1000, 3000)
        write_gray(f"scenes/{split}/masks/{name}", band & (rng.random((2000, 2000)) < 0.9))
PY
)

for side in rev change; do
  for n in 1 2; do
    echo "running $side at OPENBLAS_NUM_THREADS=$n" >&2
    dir="$work/run/$side-$n"
    mkdir "$dir"
    (
      cd "$dir"
      export OPENBLAS_NUM_THREADS=$n
      in=../../in
      # the CI recipe: stdout echoes only relative paths, the same in every run
      args="--index $in/data/index.tsv --variant proposed --epochs 1 --batch 4 --micro-batch 4 --adam-eps 1e-2 --quiet"
      lmnet train $args --out run > train.txt
      lmnet eval --ckpt run/model.ckpt --index $in/data/index.tsv --split test > eval.txt
      lmnet predict --ckpt run/model.ckpt --image $in/data/test/images/synth_00012.png --out pred > pred.txt
      lmnet predict --ckpt run/model.ckpt --image $in/scene.ppm --out scene > scene.txt
      args="--index $in/small/index.tsv --variant residual --batch 4 --micro-batch 2 --adam-eps 1e-2 --quiet"
      lmnet train $args --out resumed --epochs 1 > resumed1.txt
      lmnet train $args --out resumed --epochs 2 --resume > resumed2.txt
      lmnet prepare --input-dir $in/raw --output-dir prepared --tile-size 32 --target-size 16 \
          --min-fg 0 --max-fg 1 > prepare.txt
      lmnet train --index prepared/index.tsv --out plain --variant plain --epochs 1 --batch 4 \
          --micro-batch 2 --adam-eps 1e-2 --quiet > plain.txt
      if [[ $full == 1 ]]; then
        lmnet train --index $in/big/index.tsv --out big --variant proposed --epochs 2 --batch 20 \
            --micro-batch 10 --quiet > big.txt
        lmnet prepare --input-dir $in/scenes --output-dir scenes --tile-size 500 \
            --target-size 192 > scenes.txt
      fi
    )
  done
done

cd "$work/run"
(cd rev-1 && find . -type f | sort) > files.txt
differ=0
# a recipe that stopped writing one of these would compare less than it claims
for f in run/history_train.csv run/history_val.csv run/last.ckpt run/best.ckpt run/model.ckpt \
         eval.txt pred_prob.png pred_mask.png scene_prob.png scene_mask.png; do
  [[ -f rev-1/$f ]] || { echo "missing: rev-1/$f"; differ=1; }
done
for other in rev-2 change-1 change-2; do
  if ! diff -q files.txt <(cd "$other" && find . -type f | sort) > /dev/null; then
    echo "$other writes other files than rev-1" >&2
    differ=1
  fi
  while read -r f; do
    if ! cmp -s "rev-1/$f" "$other/$f"; then
      echo "differs: rev-1/${f#./} $other/${f#./}"
      differ=1
    fi
  done < files.txt
done
echo "$(wc -l < files.txt) files compared across rev-1, rev-2, change-1 and change-2" >&2
keep=$differ
exit $differ
