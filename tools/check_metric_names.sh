#!/usr/bin/env bash
# Enforces the `layer.noun_verb` metric naming convention (see
# src/obs/metrics.h): every string literal passed to IncrementCounter /
# SetGauge / AddToGauge / Observe — or interned via CounterSeries /
# GaugeSeries / HistogramSeries — must match ^[a-z_]+\.[a-z0-9_.]+$ —
# a lowercase layer prefix, a dot, then lowercase/digit/underscore words.
#
# Also enforces two more namespaces:
#   - SLO objective names: any "slo.<...>" string literal must be
#     slo.<layer>.<objective> (three dot-separated lowercase segments,
#     e.g. "slo.sched.place_latency_p99").
#   - Span categories: the literal category of every call that opens a
#     span — Scope, Begin, BeginAt, BeginWithSet and the ScopedSpan
#     constructor, with its arguments on one line or wrapped over several —
#     must be a bare lowercase word (^[a-z_][a-z0-9_.]*$). Categories
#     become Chrome-trace lanes, in exports and flight-recorder dumps
#     alike, so they stay short and greppable. Under src/, bench/ and
#     tools/ the literal span
#     name must also be <category>.noun_verb (e.g. "sched.place_task").
#     A one-argument Begin is PlacementEngine::Begin(purpose), which opens
#     a transaction, not a span: its purpose is a label value, not linted.
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

# Span openings. Prints `file<TAB>line<TAB>category<TAB>name` for every
# call that opens a span with a literal category (`name` is empty when the
# name is not a literal). Reads whole files, so a call whose arguments wrap
# onto later lines is seen like any other; calls on comment lines are not.
span_sites() {
  perl -e '
    use strict;
    use warnings;
    # The top-level arguments of the call whose "(" ends at $pos.
    sub call_args {
      my ($text, $pos) = @_;
      my ($depth, $arg, @args) = (0, "");
      while ($pos < length $text) {
        my $c = substr($text, $pos, 1);
        if ($c eq "\"" || $c eq "\x27") {  # string or char literal
          my $end = $pos + 1;
          while ($end < length $text && substr($text, $end, 1) ne $c) {
            $end += substr($text, $end, 1) eq "\\" ? 2 : 1;
          }
          $arg .= substr($text, $pos, $end - $pos + 1);
          $pos = $end + 1;
          next;
        }
        if ($c =~ /[(\[{]/) {
          $depth++;
        } elsif ($c =~ /[)\]}]/) {
          last if $depth-- == 0;
        } elsif ($c eq "," && $depth == 0) {
          push @args, $arg;
          ($arg, $pos) = ("", $pos + 1);
          next;
        }
        $arg .= $c;
        $pos++;
      }
      push @args, $arg if $arg =~ /\S/;
      s/^\s+|\s+$//g for @args;
      return @args;
    }
    my $opening = qr/\b(ScopedSpan(?:\s+\w+)?|Scope|Begin|BeginAt|BeginWithSet)\s*\(/;
    for my $file (@ARGV) {
      open(my $fh, "<", $file) or die "$file: $!";
      my $text = do { local $/; <$fh> };
      close $fh;
      while ($text =~ /$opening/g) {
        my ($call, $start, $after) = ($1, $-[0], $+[0]);
        my $line_start = rindex($text, "\n", $start) + 1;
        next if substr($text, $line_start, $start - $line_start) =~ m{^\s*//};
        my @args = call_args($text, $after);
        next if $call eq "Begin" && @args == 1;  # a transaction purpose
        # BeginAt leads with the start time, a constructor with the tracer.
        my $at = ($call eq "BeginAt" || $call =~ /^ScopedSpan/) ? 1 : 0;
        next unless @args > $at && $args[$at] =~ /^"([^"]*)"$/;
        my $category = $1;
        my $name = @args > $at + 1 && $args[$at + 1] =~ /^"([^"]*)"$/ ? $1 : "";
        my $line = 1 + (substr($text, 0, $start) =~ tr/\n//);
        print "$file\t$line\t$category\t$name\n";
      }
    }' "$@"
}

cat_found=0
while IFS=$'\t' read -r file line category name; do
  cat_found=$((cat_found + 1))
  if ! [[ "$category" =~ $category_pattern ]]; then
    echo "bad span category: $file:$line: \"$category\"" >&2
    bad=1
  elif [[ "$file" != tests/* && -n "$name" &&
          ! "$name" =~ ^"$category"\.[a-z][a-z0-9_]*$ ]]; then
    echo "bad span name: $file:$line: \"$name\" (want $category.noun_verb)" >&2
    bad=1
  fi
done < <(span_sites $(find src tools bench tests -name '*.cc' -o -name '*.h' \
                      | sort))

if [[ "$slo_found" -eq 0 ]]; then
  echo "check_metric_names.sh: no SLO name literals found — grep broken?" >&2
  exit 1
fi
if [[ "$cat_found" -eq 0 ]]; then
  echo "check_metric_names.sh: no span call sites found — perl broken?" >&2
  exit 1
fi

# Required series: the content-addressed env-store observability surface,
# the router's cell and region series, and the frontend's deploy and
# spec-cache series. These names are load-bearing — benches gate on them,
# `udcctl slo` registers slo.exec.warm_hit_ratio over the gauge and
# slo.frontend.deploy_latency_p99 over the frontend's latency series (which
# every admitted deploy RPC observes), `udcctl cells`/`regions` and
# perfbench read the router's counters and sketches, and deploy_churn's
# frontend phase gates on the spec cache's hits and misses — so renaming or
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
  sched.cell_deploys
  sched.cross_cell_deploys
  sched.cell_fallbacks
  sched.cell_place_latency_us
  sched.place_latency_us
  frontend.deploy_latency_ms
  frontend.deploys
  frontend.spec_cache_hits
  frontend.spec_cache_misses
)
for series in "${required_series[@]}"; do
  if ! grep -rqF "\"$series\"" src; then
    echo "missing required metric series: \"$series\" is not interned" \
         "anywhere under src/" >&2
    bad=1
  fi
done

# Required SLO objectives that live outside src/: deploy_churn's scale and
# federation phases register slo.sched.cell_place_p99 and
# slo.sched.region_place_p99 over the router's sched.place_latency_us
# sketch and gate on them, and `udcctl slo` registers
# slo.frontend.deploy_latency_p99 — dropping a registration would silently
# un-gate a tail, so all three are pinned here (bench/ and tools/ are their
# home; src/ never registers SLOs itself).
required_slos=(
  slo.sched.region_place_p99
  slo.sched.cell_place_p99
  slo.frontend.deploy_latency_p99
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
       "span categories $category_pattern, span names <category>.noun_verb" >&2
  exit 1
fi
echo "check_metric_names.sh: $found metric + $slo_found slo +" \
     "$cat_found span call sites OK," \
     "${#required_series[@]} required series +" \
     "${#required_slos[@]} required SLOs present"
