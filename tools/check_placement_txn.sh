#!/usr/bin/env bash
# Enforces the placement-transaction discipline (see
# src/core/placement_txn.h): nothing outside the pool layer (src/hw) and
# the placement engine itself may call ResourcePool::Allocate / Release /
# Resize directly. Control-plane services stage pool mutations through a
# PlacementTxn (or the engine's unconditional Release /
# ReleasePoolAllocation helper), so there is exactly one rollback path and
# no hand-rolled "release what I acquired so far" loops.
#
# Flags:
#   - any `->Allocate(` / `->Release(` / `->Resize(` arrow call, and
#   - dot calls whose receiver is pool-shaped: `pool.Allocate(`,
#     `my_pool.Release(`, `pool(kind).Resize(` ...
# in src/ outside src/hw/ and src/core/placement_{txn,engine}.{h,cc}.
# Txn calls (`txn.Allocate(`) and engine calls (`engine_.Release(`) have
# non-pool receivers and pass.
#
# Runs as a ctest (see tests/CMakeLists.txt) and in CI. Exit 0 when clean,
# 1 otherwise (offenders listed on stderr).

set -euo pipefail
cd "$(dirname "$0")/.."

offenders=$(grep -rnE \
    -e '->[[:space:]]*(Allocate|Release|Resize)\(' \
    -e '\b[A-Za-z0-9_]*[Pp]ool[A-Za-z0-9_]*[[:space:]]*\.[[:space:]]*(Allocate|Release|Resize)\(' \
    -e '\bpool\([^)]*\)[[:space:]]*\.[[:space:]]*(Allocate|Release|Resize)\(' \
    src --include='*.cc' --include='*.h' \
  | grep -v '^src/hw/' \
  | grep -v '^src/core/placement_txn\.' \
  | grep -v '^src/core/placement_engine\.' \
  || true)

if [[ -n "$offenders" ]]; then
  echo "direct pool Allocate/Release/Resize outside src/hw and the placement engine:" >&2
  echo "$offenders" >&2
  echo "stage pool mutations through PlacementTxn (src/core/placement_txn.h)" >&2
  exit 1
fi

# Sanity guard: the allowed call sites must still exist, otherwise the grep
# itself is broken and the check is vacuous.
allowed=$(grep -rcE '(->|\.)[[:space:]]*(Allocate|Release|Resize)\(' \
    src/core/placement_txn.cc src/core/placement_engine.cc \
  | awk -F: '{sum += $2} END {print sum}')
if [[ "${allowed:-0}" -eq 0 ]]; then
  echo "check_placement_txn.sh: no pool calls found in the engine — grep broken?" >&2
  exit 1
fi

# Hierarchical control plane: the router (the one deploy path) and the
# per-cell scheduler sources must exist, be inside the scanned tree (so the
# offender grep above covers them), and stage their mutations through
# PlacementTxn — a routing path that stopped using the transaction would
# silently regrow hand-rolled rollback.
txn_users=0
txn_sources=(src/core/region_router.cc src/core/scheduler.cc)
for f in "${txn_sources[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "check_placement_txn.sh: expected control-plane source $f missing" >&2
    exit 1
  fi
  if grep -qE '\bPlacementTxn\b|\btxn\.(Allocate|StageRelease|StageUndo|AbortTo)\(' "$f"; then
    txn_users=$((txn_users + 1))
  fi
done
if [[ "$txn_users" -lt ${#txn_sources[@]} ]]; then
  echo "check_placement_txn.sh: control-plane sources no longer stage through PlacementTxn — check the deploy path" >&2
  exit 1
fi

echo "check_placement_txn.sh: OK (engine call sites: $allowed, control-plane txn sources: $txn_users)"
