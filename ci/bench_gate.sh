#!/usr/bin/env bash
# Transport regression gate: compare the fresh BENCH_transport.json
# against the checked-in per-row throughput budgets and fail CI when any
# backend×mode row has regressed by more than 25%.
#
# The artifact's `exchange` rows (full vs delta bytes-on-wire of the
# N-body exchange phase, measured deterministically on the simulator)
# are gated the opposite way: each row must stay *under* its checked-in
# byte ceiling, and the delta row must stay at least MIN_DELTA_RATIO x
# cheaper per iteration than the full row.
#
# Usage:
#   ci/bench_gate.sh                    # gate against ci/bench_budgets.json
#   BENCH_UPDATE_BUDGETS=1 ci/bench_gate.sh
#                                       # rewrite the budgets from the
#                                       # fresh artifact (commit the diff)
#
# The artifact is produced by the transport_regression bench
# (crates/bench/benches/transport_regression.rs); ci.sh runs that bench
# immediately before this gate, so the comparison is always against
# numbers measured on the machine running CI. Budgets are therefore
# machine-relative: refresh them (BENCH_UPDATE_BUDGETS=1) when moving CI
# to slower or faster hardware, and commit the regenerated file.
#
# A budget is a *guaranteed-attainable floor*, not a peak: the update
# path writes half the measured best-of-9 throughput, absorbing the
# host-level variance shared CI machines exhibit between invocations.
# The 25% tolerance then sits on top of that floor, so the gate trips on
# real structural regressions (an accidental sleep, a quadratic copy, a
# lost fast path) rather than on a noisy neighbour.
set -euo pipefail
cd "$(dirname "$0")/.."

# Where ci.sh's bench smoke steps write their artifacts.
BENCH_OUT="target/bench-out"
ARTIFACT="${BENCH_TRANSPORT_ARTIFACT:-$BENCH_OUT/BENCH_transport.json}"
SCALE_ARTIFACT="${BENCH_SCALE_ARTIFACT:-$BENCH_OUT/BENCH_scale.json}"
CONTROLLER_ARTIFACT="${BENCH_CONTROLLER_ARTIFACT:-$BENCH_OUT/BENCH_controller.json}"
BUDGETS="ci/bench_budgets.json"
# A row fails when fresh < budget * TOLERANCE (i.e. >25% regression).
TOLERANCE="0.75"
# The delta exchange row must move at least this many times fewer bytes
# per iteration than the full row (the PR 7 acceptance bar).
MIN_DELTA_RATIO="3.0"

if ! command -v jq >/dev/null 2>&1; then
    echo "bench gate: jq not found; skipping (gate requires jq)" >&2
    exit 0
fi

if [[ ! -f "$ARTIFACT" ]]; then
    echo "bench gate: $ARTIFACT missing — run the transport_regression bench first:" >&2
    echo "  SPEC_BENCH_OUT=\"\$PWD/$BENCH_OUT\" cargo bench -q -p spec-bench --bench transport_regression" >&2
    exit 1
fi

if [[ "${BENCH_UPDATE_BUDGETS:-0}" == "1" ]]; then
    # Throughput budgets are floors (half the measured best absorbs host
    # variance); byte ceilings are caps with 25% headroom over the
    # deterministic measurement, so codec bloat trips the gate while a
    # deliberate format change only needs a committed refresh.
    jq '{budgets: (.rows | map({key: "\(.backend)_\(.mode)", value: (.msgs_per_sec * 0.5 | floor)}) | from_entries),
         byte_ceilings: ((.exchange // []) | map({key: "nbody_\(.mode)", value: (.bytes_per_iter * 1.25 | ceil)}) | from_entries)}' \
        "$ARTIFACT" >"$BUDGETS"
    if [[ -f "$SCALE_ARTIFACT" ]]; then
        # Scale floors are half the measured event throughput (host
        # variance); RSS ceilings get 4x headroom plus a 4 KiB constant
        # because VmHWM deltas are quantized to pages.
        jq --slurpfile scale "$SCALE_ARTIFACT" \
           '. + {scale_floors: ($scale[0].rows | map({key: "ranks_\(.ranks)", value: (.events_per_sec * 0.5 | floor)}) | from_entries),
                 scale_rss_ceilings: ($scale[0].rows | map({key: "ranks_\(.ranks)", value: (.rss_bytes_per_rank * 4 + 4096 | ceil)}) | from_entries)}' \
           "$BUDGETS" >"$BUDGETS.tmp" && mv "$BUDGETS.tmp" "$BUDGETS"
    fi
    if [[ -f "$CONTROLLER_ARTIFACT" ]]; then
        # The controller ratio is a deterministic virtual-time number, so
        # its ceiling needs only a thin 5% allowance over the measurement
        # (and never below 1.05: matching the best fixed point is the
        # acceptance bar, not beating it).
        jq --slurpfile ctl "$CONTROLLER_ARTIFACT" \
           '. + {controller: {ratio_ceiling: (([$ctl[0].ratio * 1.05, 1.05] | max * 1000 | ceil) / 1000)}}' \
           "$BUDGETS" >"$BUDGETS.tmp" && mv "$BUDGETS.tmp" "$BUDGETS"
    fi
    echo "bench gate: rewrote $BUDGETS from $ARTIFACT (+ $SCALE_ARTIFACT / $CONTROLLER_ARTIFACT if present):"
    cat "$BUDGETS"
    exit 0
fi

if [[ ! -f "$BUDGETS" ]]; then
    echo "bench gate: $BUDGETS missing — bootstrap with BENCH_UPDATE_BUDGETS=1 ci/bench_gate.sh" >&2
    exit 1
fi

fail=0
while IFS=$'\t' read -r key fresh; do
    budget=$(jq -r --arg k "$key" '.budgets[$k] // empty' "$BUDGETS")
    if [[ -z "$budget" ]]; then
        echo "FAIL  $key: no budget in $BUDGETS (add it with BENCH_UPDATE_BUDGETS=1)"
        fail=1
        continue
    fi
    floor=$(jq -n --argjson b "$budget" --argjson t "$TOLERANCE" '$b * $t')
    ok=$(jq -n --argjson f "$fresh" --argjson fl "$floor" '$f >= $fl')
    pct=$(jq -n --argjson f "$fresh" --argjson b "$budget" '100 * $f / $b | floor')
    if [[ "$ok" == "true" ]]; then
        printf 'ok    %-18s %12.0f msgs/s  (budget %s, %s%%)\n' "$key" "$fresh" "$budget" "$pct"
    else
        printf 'FAIL  %-18s %12.0f msgs/s  < 75%% of budget %s (%s%%)\n' "$key" "$fresh" "$budget" "$pct"
        fail=1
    fi
done < <(jq -r '.rows[] | "\(.backend)_\(.mode)\t\(.msgs_per_sec)"' "$ARTIFACT")

# Every budgeted row must also be present in the artifact, so deleting a
# bench row can't silently pass the gate.
while IFS= read -r key; do
    present=$(jq -r --arg k "$key" '.rows | map("\(.backend)_\(.mode)") | index($k) != null' "$ARTIFACT")
    if [[ "$present" != "true" ]]; then
        echo "FAIL  $key: budgeted row missing from $ARTIFACT"
        fail=1
    fi
done < <(jq -r '.budgets | keys[]' "$BUDGETS")

# Bytes-on-wire ceilings: each exchange row must come in at or under its
# checked-in cap (these are deterministic virtual-time counters, so any
# increase is a real codec/protocol change, not noise).
while IFS=$'\t' read -r key fresh; do
    ceiling=$(jq -r --arg k "$key" '.byte_ceilings[$k] // empty' "$BUDGETS")
    if [[ -z "$ceiling" ]]; then
        echo "FAIL  $key: no byte ceiling in $BUDGETS (add it with BENCH_UPDATE_BUDGETS=1)"
        fail=1
        continue
    fi
    ok=$(jq -n --argjson f "$fresh" --argjson c "$ceiling" '$f <= $c')
    if [[ "$ok" == "true" ]]; then
        printf 'ok    %-18s %12.0f bytes/iter  (ceiling %s)\n' "$key" "$fresh" "$ceiling"
    else
        printf 'FAIL  %-18s %12.0f bytes/iter  > ceiling %s\n' "$key" "$fresh" "$ceiling"
        fail=1
    fi
done < <(jq -r '(.exchange // [])[] | "nbody_\(.mode)\t\(.bytes_per_iter)"' "$ARTIFACT")

# Every byte-ceilinged row must be present in the artifact.
while IFS= read -r key; do
    present=$(jq -r --arg k "$key" '(.exchange // []) | map("nbody_\(.mode)") | index($k) != null' "$ARTIFACT")
    if [[ "$present" != "true" ]]; then
        echo "FAIL  $key: byte-ceilinged row missing from $ARTIFACT"
        fail=1
    fi
done < <(jq -r '(.byte_ceilings // {}) | keys[]' "$BUDGETS")

# The headline claim: delta encoding keeps the steady-state exchange at
# least MIN_DELTA_RATIO x cheaper in bytes/iteration than full frames.
ratio=$(jq -r '(.exchange // []) | map({(.mode): .bytes_per_iter}) | add // {}
               | if .full and .delta then (.full / .delta) else empty end' "$ARTIFACT")
if [[ -z "$ratio" ]]; then
    echo "FAIL  exchange rows (full + delta) missing from $ARTIFACT"
    fail=1
else
    ok=$(jq -n --argjson r "$ratio" --argjson m "$MIN_DELTA_RATIO" '$r >= $m')
    if [[ "$ok" == "true" ]]; then
        printf 'ok    %-18s %12.1fx bytes saved  (must be >= %sx)\n' "full/delta" "$ratio" "$MIN_DELTA_RATIO"
    else
        printf 'FAIL  %-18s %12.1fx bytes saved  < required %sx\n' "full/delta" "$ratio" "$MIN_DELTA_RATIO"
        fail=1
    fi
fi

# ---------------------------------------------------------------------------
# Stackless scale sweep (BENCH_scale.json): every row's kernel event
# throughput must hold above its checked-in floor, and its peak-RSS
# growth per rank must stay under its ceiling. The 10000-rank row is the
# acceptance anchor (a 10k-rank sim with zero OS threads per rank) and
# must always be present.
if [[ -f "$SCALE_ARTIFACT" ]]; then
    present=$(jq -r '.rows | map(.ranks) | index(10000) != null' "$SCALE_ARTIFACT")
    if [[ "$present" != "true" ]]; then
        echo "FAIL  scale: 10000-rank row missing from $SCALE_ARTIFACT"
        fail=1
    fi
    while IFS=$'\t' read -r ranks eps rss; do
        key="ranks_${ranks}"
        floor=$(jq -r --arg k "$key" '.scale_floors[$k] // empty' "$BUDGETS")
        ceiling=$(jq -r --arg k "$key" '.scale_rss_ceilings[$k] // empty' "$BUDGETS")
        if [[ -z "$floor" || -z "$ceiling" ]]; then
            echo "FAIL  $key: no scale budget in $BUDGETS (add it with BENCH_UPDATE_BUDGETS=1)"
            fail=1
            continue
        fi
        ok=$(jq -n --argjson f "$eps" --argjson fl "$floor" --argjson t "$TOLERANCE" '$f >= $fl * $t')
        if [[ "$ok" == "true" ]]; then
            printf 'ok    %-18s %12.0f events/s  (floor %s)\n' "$key" "$eps" "$floor"
        else
            printf 'FAIL  %-18s %12.0f events/s  < 75%% of floor %s\n' "$key" "$eps" "$floor"
            fail=1
        fi
        ok=$(jq -n --argjson r "$rss" --argjson c "$ceiling" '$r <= $c')
        if [[ "$ok" == "true" ]]; then
            printf 'ok    %-18s %12.0f rss B/rank  (ceiling %s)\n' "$key" "$rss" "$ceiling"
        else
            printf 'FAIL  %-18s %12.0f rss B/rank  > ceiling %s\n' "$key" "$rss" "$ceiling"
            fail=1
        fi
    done < <(jq -r '.rows[] | "\(.ranks)\t\(.events_per_sec)\t\(.rss_bytes_per_rank)"' "$SCALE_ARTIFACT")
else
    echo "bench gate: $SCALE_ARTIFACT missing — run the scale_sweep bench first:" >&2
    echo "  SPEC_BENCH_OUT=\"\$PWD/$BENCH_OUT\" cargo bench -q -p spec-bench --bench scale_sweep" >&2
    fail=1
fi

# ---------------------------------------------------------------------------
# Adaptive controller sweep (BENCH_controller.json): the controller's
# makespan over the heterogeneous-delay scenario must stay within
# ratio_ceiling of the best fixed (θ, FW) grid point. These are exact
# virtual-time nanoseconds, so any drift is a real behaviour change in
# the controller, the driver, or the workload — never host noise.
if [[ -f "$CONTROLLER_ARTIFACT" ]]; then
    ceiling=$(jq -r '.controller.ratio_ceiling // empty' "$BUDGETS")
    if [[ -z "$ceiling" ]]; then
        echo "FAIL  controller: no ratio_ceiling in $BUDGETS (add it with BENCH_UPDATE_BUDGETS=1)"
        fail=1
    else
        n_rows=$(jq -r '.rows | length' "$CONTROLLER_ARTIFACT")
        retunes=$(jq -r '.adaptive_retunes' "$CONTROLLER_ARTIFACT")
        ratio=$(jq -r '.ratio' "$CONTROLLER_ARTIFACT")
        if [[ "$n_rows" -lt 2 ]]; then
            echo "FAIL  controller: fixed (θ, FW) grid missing from $CONTROLLER_ARTIFACT"
            fail=1
        fi
        if [[ "$retunes" -lt 1 ]]; then
            echo "FAIL  controller: adaptive run never retuned (adaptive_retunes=$retunes)"
            fail=1
        fi
        ok=$(jq -n --argjson r "$ratio" --argjson c "$ceiling" '$r <= $c')
        if [[ "$ok" == "true" ]]; then
            printf 'ok    %-18s %12.3f vs best fixed  (ceiling %s, %s retunes)\n' \
                "controller" "$ratio" "$ceiling" "$retunes"
        else
            printf 'FAIL  %-18s %12.3f vs best fixed  > ceiling %s\n' "controller" "$ratio" "$ceiling"
            fail=1
        fi
    fi
else
    echo "bench gate: $CONTROLLER_ARTIFACT missing — run the controller_sweep bench first:" >&2
    echo "  SPEC_BENCH_OUT=\"\$PWD/$BENCH_OUT\" cargo bench -q -p spec-bench --bench controller_sweep" >&2
    fail=1
fi

if [[ "$fail" != "0" ]]; then
    echo "bench gate: transport throughput regressed >25% (or rows drifted); see above." >&2
    echo "If the regression is intended, refresh budgets: BENCH_UPDATE_BUDGETS=1 ci/bench_gate.sh" >&2
    exit 1
fi
echo "bench gate: all transport, scale, and controller rows within budget."
