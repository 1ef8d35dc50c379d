#!/usr/bin/env bash
# Fails when DESIGN.md, README.md or EXPERIMENTS.md names a Go symbol that
# does not exist. Every backticked `pkg.Name` (or `*pkg.Name`) whose pkg
# is a directory under internal/ must resolve with
# `go doc ./internal/pkg Name`; Name may be Type.Field or Type.Method. A
# trailing `*`, as in `workload.SPEC*`, matches any exported top-level
# symbol of the package with that prefix. References to packages outside
# internal/ (`context.Context`, `sync.Pool`) are not checked.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(DESIGN.md README.md EXPERIMENTS.md)
fail=0
checked=0
while read -r ref; do
	pkg=${ref%%.*}
	name=${ref#*.}
	[ -d "internal/$pkg" ] || continue
	checked=$((checked + 1))
	if [[ $name == *'*' ]]; then
		prefix=${name%'*'}
		if go doc -short "./internal/$pkg" 2>/dev/null |
			grep -Eq "^[[:space:]]*(func|type|var|const) ${prefix}"; then
			continue
		fi
	elif go doc "./internal/$pkg" "$name" >/dev/null 2>&1; then
		continue
	fi
	echo "unresolved doc symbol: \`$ref\` (in $(grep -l -F "$ref" "${docs[@]}" | tr '\n' ' ' | sed 's/ $//'))"
	fail=1
done < <(grep -ohE '`\*?[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_.]*\*?`' "${docs[@]}" |
	tr -d '`' | sed 's/^\*//' | sort -u)

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "doc symbols ok ($checked checked)"
