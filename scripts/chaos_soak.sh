#!/usr/bin/env bash
# Fixed-seed chaos soak of the serve/cluster/resultstore stack, built
# with -race. Each iteration proteus-chaos runs the same crash campaign
# fault-free and on a real in-process cluster with injected disk faults
# (torn writes, bit flips, ENOSPC, fsync failure, crash-before-rename),
# network faults (drops, delays, duplicates, 5xx) and process faults
# (worker killed mid-batch, stalls past the lease TTL), and asserts the
# two reports are byte-identical. The run fails on any mismatch, any
# quarantined cluster item, any store entry diverging from the ledger,
# corruption that survives the final scrub, or an audit-divergent or
# unledgered entry.
#
# Env overrides: SEED (default 42), DURATION (default 60s),
# WORKERS (default 3), OUT_DIR (default a temp dir; soak report and
# stores land there for artifact upload).
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-42}"
DURATION="${DURATION:-60s}"
WORKERS="${WORKERS:-3}"
OUT_DIR="${OUT_DIR:-$(mktemp -d)}"
mkdir -p "$OUT_DIR"

say() { echo "chaos_soak: $*" >&2; }

BIN="$OUT_DIR/proteus-chaos"
go build -race -o "$BIN" ./cmd/proteus-chaos
say "built proteus-chaos (-race); seed=$SEED duration=$DURATION workers=$WORKERS"

"$BIN" -seed "$SEED" -duration "$DURATION" -workers "$WORKERS" \
    -faults fs,http,kill -store "$OUT_DIR/stores" -out "$OUT_DIR/soak-report.json"

say "soak passed; report at $OUT_DIR/soak-report.json"
