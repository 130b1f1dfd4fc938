#!/bin/sh
# A lktm-sim run writes the same lktm.stats.v1 artifact as the sweep job of
# the same cell, byte for byte once wall_seconds is zeroed: the system and
# machine names carry every knob, and both record the same seed. Runs the
# "ablations" preset, then lktm-sim on one policy-token cell and one
# machine-token cell.
#
#   sh tools/sim_matches_sweep.sh LKTM_SIM LKTM_SWEEP WORKDIR
set -eu
sim="$1"
sweep="$2"
dir="$3"
rm -rf "$dir"
mkdir -p "$dir"
"$sweep" plan --preset ablations --manifest "$dir/sweep.json" >/dev/null
"$sweep" run --manifest "$dir/sweep.json" --quiet
zero_wall() { sed -E 's/"wall_seconds": [^,]*,/"wall_seconds": 0,/' "$1"; }
for cell in "LockillerTM+sof yada typical 2" \
            "LockillerTM kmeans+ typical-net=ideal 32"; do
  set -- $cell
  stem="$(printf '%s' "$1/$2/$3@$4#11" | tr -c 'A-Za-z0-9.-' '_')"
  "$sim" --system "$1" --workload "$2" --machine "$3" --threads "$4" \
    --stats-json "$dir/sim_$stem.json" >/dev/null
  zero_wall "$dir/sweep.json.d/$stem.json" > "$dir/sweep_zeroed.json"
  zero_wall "$dir/sim_$stem.json" > "$dir/sim_zeroed.json"
  if ! cmp "$dir/sweep_zeroed.json" "$dir/sim_zeroed.json"; then
    echo "lktm-sim and the sweep disagree on $1/$2/$3@$4" >&2
    exit 1
  fi
  echo "$1/$2/$3@$4: lktm-sim artifact = sweep artifact"
done
