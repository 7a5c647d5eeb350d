#!/usr/bin/env sh
# Host-stall check for the innermost loops, run by `make stall-check` and CI.
#
# Two regressions here change no result, so no test can see them; only the
# generated code shows them. This script builds ./cmd/rsr and reads it with
# `go tool objdump`:
#
#   - funcsim.(*Sim).RunBatch must not load 16 bytes from its stack frame
#     (`MOVUPS n(SP), Xk`). That is the signature of a record built as a
#     composite literal in a stack temporary with byte-wide stores and then
#     copied into the batch buffer: every such load waits for the stores to
#     drain (a failed store-to-load forward), ~6 ns per simulated instruction.
#     Records are stored field by field through `d := &buf[n]`.
#   - funcsim.(*Sim).RunBatch, funcsim.(*Sim).Skip, the record-free cold
#     kernel, and funcsim.(*Sim).SkipWindow, the warm-up window kernel, must
#     not call (*Memory).Read, (*Memory).Write or (*Memory).page: guest memory
#     is reached through the page cache inlined into the loop, and a call per
#     load or store (an accessor grown past the inliner's budget) costs more
#     than the cache saves.
#   - funcsim.(*Sim).SkipWindow must not call runtime.growslice: it stores
#     records by index within the capacity its caller gave it, and an append
#     in the loop would copy the log whenever it grows.
#   - ooo.(*Sim).{fetch,dispatch,issue,execute,retire,lsqScan,nextEvent} —
#     the per-cycle loops, the issue of one instruction and the idle-cycle
#     skip; link, wake, wrap and sooner are inlined into them — must contain
#     no hardware divide (`% len(ring)` on a size the compiler cannot see;
#     ring positions wrap by compare-and-subtract) and no call into Duff's
#     device (runtime.duffcopy: a whole-struct copy of the 88-byte entry;
#     fetch builds each entry in place in the one ring slot it keeps until it
#     retires, and no stage copies it). Such a call enters the routine
#     part-way, so objdump prints it as a bare `CALL 0x...` and not by name;
#     every ordinary call is printed with its symbol.
#   - ooo.(*Sim).dispatch and issue must not call link or wake: the wake
#     lists are walked once per dependence, and a call there (either grown
#     past the inliner's budget) is paid at every dispatch and issue.
#
# The mnemonics are amd64's; on another architecture the check is skipped.
set -eu

GO="${GO:-go}"

if [ "$("$GO" env GOARCH)" != amd64 ]; then
    echo "stall-check: skipped (patterns are amd64 mnemonics, GOARCH=$("$GO" env GOARCH))"
    exit 0
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

"$GO" build -o "$WORKDIR/rsr" ./cmd/rsr

STATUS=0

# check SYMBOL-REGEXP PATTERN WHY: fail if the function's code matches PATTERN,
# or if the function is not in the binary at all (renamed or fully inlined: the
# list above needs updating, not skipping).
check() {
    "$GO" tool objdump -s "$1" "$WORKDIR/rsr" >"$WORKDIR/fn.txt"
    if ! grep -q '^TEXT' "$WORKDIR/fn.txt"; then
        echo "stall-check: no function matches $1" >&2
        STATUS=1
    elif grep -E "$2" "$WORKDIR/fn.txt" >&2; then
        echo "stall-check: $1: $3" >&2
        STATUS=1
    fi
}

check 'funcsim\.\(\*Sim\)\.RunBatch$' 'MOVUPS[[:space:]]+[0-9a-fx]*\(SP\), X[0-9]+' \
    'a 16-byte load from the stack frame: the record is being built in a temporary and copied'
for FN in RunBatch Skip SkipWindow; do
    check "funcsim\.\(\*Sim\)\.$FN\$" 'CALL .*funcsim\.\(\*Memory\)\.(Read|Write|page)\(SB\)' \
        'a call to a memory accessor: it is no longer inlined into the interpreter'
done
check 'funcsim\.\(\*Sim\)\.SkipWindow$' 'CALL runtime\.growslice' \
    'an append in the window kernel: records are stored by index'
for FN in fetch dispatch issue execute retire lsqScan nextEvent; do
    check "ooo\.\(\*Sim\)\.$FN\$" 'DIVQ|CALL 0x[0-9a-f]+' \
        'a hardware divide or a Duff copy in a per-cycle loop'
done
for FN in dispatch issue; do
    check "ooo\.\(\*Sim\)\.$FN\$" 'CALL .*ooo\.\(\*Sim\)\.(link|wake)\(SB\)' \
        'a call to link or wake: the wake-list walk is no longer inlined'
done

[ "$STATUS" -eq 0 ] && echo "stall-check: ok (RunBatch stores records in place; RunBatch, Skip and SkipWindow inline guest memory; SkipWindow never appends; ooo's per-cycle loops are divide-free and copy-free and inline the wake lists)"
exit "$STATUS"
