#!/usr/bin/env bash
# check-test-filters.sh — every `go test -run '<regex>' <packages>` in the
# CI workflow and the Makefile must select tests. For each |-separated
# alternative of the regex, `go test -list` over the command's packages
# must print at least one test name; otherwise a renamed or deleted test
# has turned that step into a silent "[no tests to run]" pass.
#
# Usage: scripts/check-test-filters.sh   (from anywhere; exits 1 on a miss)
set -euo pipefail
cd "$(dirname "$0")/.."

# Commands whose regex deliberately matches nothing (-run=^$ before
# -bench/-fuzz) are skipped.
run_re="-run[= ]'([^']*)'"
checked=0
failed=0
while IFS= read -r line; do
	[[ $line =~ $run_re ]] || continue
	regex=${BASH_REMATCH[1]}
	[[ $regex == '^$' || $regex == '^$$' ]] && continue
	pkgs=$(grep -oE '\./[^[:space:]]*' <<<"$line" | tr '\n' ' ' || true)
	# shellcheck disable=SC2086 # pkgs is a space-separated list
	listed=$(go test -list "$regex" ${pkgs:-.} | grep -E '^(Test|Fuzz|Example|Benchmark)' || true)
	IFS='|' read -r -a alts <<<"$regex"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -qE "$alt" <<<"$listed"; then
			echo "check-test-filters: -run '$regex' on $pkgs: no test matches '$alt'" >&2
			failed=$((failed + 1))
		fi
	done
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' .github/workflows/ci.yml Makefile |
	grep -vE '^[[:space:]]*#' | grep -E '(go|\$\(GO\)) test ')

if ((failed > 0)); then
	echo "check-test-filters: $failed of $checked filters select no test" >&2
	exit 1
fi
echo "check-test-filters: all $checked filters select tests"
