#!/usr/bin/env bash
# Fails unless the simulator's L1-hit path inlines. The port hit attempts and
# Space.ReadGen must be inlinable, and each must be inlined into every
# access-path function that calls it, so a later edit that pushes one over
# the compiler's inlining budget fails here rather than in a benchmark.
#
# Run from the root of the checkout: bash .github/scripts/inline-guard.sh
set -euo pipefail

out=$(go build -gcflags=-m ./internal/cache ./internal/mem ./internal/sim ./internal/core 2>&1)
fail=0

for fn in '(*Port).ReadHit' '(*Port).WriteHit' '(*Space).ReadGen'; do
	if ! grep -qF "can inline $fn" <<<"$out"; then
		echo "inline-guard: $fn is not inlinable"
		fail=1
	fi
done

# Every "inlining call to" line names a call site by file:line. Resolve each
# to the function declared around it, giving "caller callee" pairs.
# Calls into another package name it ("cache.(*Port).ReadHit"); drop that
# prefix so callees read the same from every package.
pairs=$(grep -E '^[^<].*: inlining call to ' <<<"$out" | while IFS=: read -r file line _col rest; do
	callee=$(sed -E 's/^[a-z0-9_]+\.\(/(/' <<<"${rest##* inlining call to }")
	caller=$(awk -v n="$line" 'NR <= n && /^func / { f = $0 } NR == n { print f; exit }' "$file" |
		sed -E 's/^func \([a-zA-Z_]+ \*?([A-Za-z_]+)\) ([A-Za-z_]+).*/(*\1).\2/')
	echo "$caller $callee"
done | sort -u)

for want in \
	'(*Hierarchy).Read (*Port).ReadHit' \
	'(*Hierarchy).Write (*Port).WriteHit' \
	'(*Ctx).Read (*Port).ReadHit' \
	'(*Ctx).Write (*Port).WriteHit' \
	'(*Ctx).CAS (*Port).WriteHit' \
	'(*Ctx).FetchAdd (*Port).WriteHit' \
	'(*Extension).CRead (*Port).ReadHit' \
	'(*Extension).CRead (*Space).ReadGen' \
	'(*Extension).CWrite (*Port).WriteHit'; do
	if ! grep -qxF "$want" <<<"$pairs"; then
		echo "inline-guard: ${want#* } is not inlined into ${want% *}"
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "inline-guard: L1-hit path inlines at every access-path call site"
