#!/usr/bin/env bash
# Enforces the `layer.noun_verb` metric naming convention (see
# src/obs/metrics.h): every string literal passed to IncrementCounter /
# SetGauge / AddToGauge / Observe — or interned via CounterSeries /
# GaugeSeries / HistogramSeries — must match ^[a-z_]+\.[a-z0-9_.]+$ —
# a lowercase layer prefix, a dot, then lowercase/digit/underscore words.
#
# Also enforces the two namespaces the SLO/flight-recorder layer added:
#   - SLO objective names: any "slo.<...>" string literal must be
#     slo.<layer>.<objective> (three dot-separated lowercase segments,
#     e.g. "slo.sched.place_latency_p99").
#   - Span categories: the literal first argument of Scope( / Begin( must
#     be a bare lowercase word (^[a-z_][a-z0-9_.]*$) —
#     categories become Chrome-trace pids and flight-recorder fields, so
#     they stay short and greppable.
#
# Runs as a ctest (see tests/CMakeLists.txt) and in CI. Exit 0 when every
# call site conforms, 1 otherwise (offenders listed on stderr).

set -euo pipefail
cd "$(dirname "$0")/.."

pattern='^[a-z_]+\.[a-z0-9_.]+$'
slo_pattern='^slo\.[a-z_]+\.[a-z0-9_.]+$'
category_pattern='^[a-z_][a-z0-9_.]*$'
bad=0
found=0

# `file:line:Call("name"` -> `file:line:name` for every metric call site
# with a literal first argument.
while IFS=: read -r file line name; do
  found=$((found + 1))
  if ! [[ "$name" =~ $pattern ]]; then
    echo "bad metric name: $file:$line: \"$name\"" >&2
    bad=1
  fi
done < <(grep -rnoE '(IncrementCounter|SetGauge|AddToGauge|Observe|CounterSeries|GaugeSeries|HistogramSeries)\("[^"]*"' \
           src tools bench tests \
         | sed -E 's/:(IncrementCounter|SetGauge|AddToGauge|Observe|CounterSeries|GaugeSeries|HistogramSeries)\("/:/' \
         | sed -E 's/"$//')

if [[ "$found" -eq 0 ]]; then
  echo "check_metric_names.sh: no metric call sites found — grep broken?" >&2
  exit 1
fi

# SLO objective names: every "slo.<...>" literal anywhere in the tree
# (specs are built field by field, so lint the strings rather than a call
# shape). This script's own grep patterns are excluded.
slo_found=0
while IFS=: read -r file line name; do
  slo_found=$((slo_found + 1))
  if ! [[ "$name" =~ $slo_pattern ]]; then
    echo "bad SLO name: $file:$line: \"$name\" (want slo.<layer>.<objective>)" >&2
    bad=1
  fi
done < <(grep -rnoE '"slo\.[^"]*"' \
           --exclude=check_metric_names.sh src tools bench tests \
         | sed -E 's/:"/:/; s/"$//')

# Span categories: literal first argument of Scope(/Begin(.
cat_found=0
while IFS=: read -r file line name; do
  cat_found=$((cat_found + 1))
  if ! [[ "$name" =~ $category_pattern ]]; then
    echo "bad span category: $file:$line: \"$name\"" >&2
    bad=1
  fi
done < <(grep -rnoE '(->|\.)(Scope|Begin)\("[^"]*"' \
           src tools bench tests \
         | sed -E 's/:(->|\.)(Scope|Begin)\("/:/' \
         | sed -E 's/"$//')

if [[ "$slo_found" -eq 0 ]]; then
  echo "check_metric_names.sh: no SLO name literals found — grep broken?" >&2
  exit 1
fi
if [[ "$cat_found" -eq 0 ]]; then
  echo "check_metric_names.sh: no span category literals found — grep broken?" >&2
  exit 1
fi

# Required series: the content-addressed env-store observability surface.
# These names are load-bearing — benches gate on them and `udcctl slo`
# registers slo.exec.warm_hit_ratio over the gauge — so renaming or
# dropping any of them must fail this lint, not silently zero a dashboard.
required_series=(
  exec.warm_hit_ratio
  exec.store_bytes
  exec.store_bytes_deduped
  exec.evictions
  exec.prewarmed
  exec.tepid_starts
  exec.cross_tenant_warm_starts
  attest.image_quotes_minted
  net.wan_messages_sent
  net.wan_bytes_sent
  net.wan_queue_us
  exec.remote_starts
  exec.remote_start_latency_ms
  sched.region_deploys
  sched.cross_region_deploys
  sched.region_fallbacks
  sched.region_place_latency_us
)
for series in "${required_series[@]}"; do
  if ! grep -rqF "\"$series\"" src; then
    echo "missing required metric series: \"$series\" is not interned" \
         "anywhere under src/" >&2
    bad=1
  fi
done

# Required SLO objectives that live outside src/: the federation bench
# registers slo.sched.region_place_p99 over the region-place sketch and
# gates on it — dropping the registration would silently un-gate the
# region placement tail, so it is pinned here (bench/ is its home; src/
# never registers SLOs itself).
required_slos=(
  slo.sched.region_place_p99
)
for slo in "${required_slos[@]}"; do
  if ! grep -rqF "\"$slo\"" src bench tools; then
    echo "missing required SLO objective: \"$slo\" is not registered" \
         "anywhere under src/, bench/ or tools/" >&2
    bad=1
  fi
done

if [[ "$bad" -ne 0 ]]; then
  echo "names must match: metrics $pattern, SLOs $slo_pattern," \
       "span categories $category_pattern" >&2
  exit 1
fi
echo "check_metric_names.sh: $found metric + $slo_found slo +" \
     "$cat_found span-category call sites OK," \
     "${#required_series[@]} required series +" \
     "${#required_slos[@]} required SLOs present"
