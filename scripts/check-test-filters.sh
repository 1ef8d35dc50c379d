#!/usr/bin/env bash
# check-test-filters.sh — every `go test -run '<regex>' <packages>` in the
# CI workflow and the Makefile must select tests. For each alternative of
# the regex, `go test -list` over the command's packages must print at
# least one test name; otherwise a renamed or deleted test has turned that
# step into a silent "[no tests to run]" pass. The alternatives are the
# regex's top-level |-separated parts, with one group in each expanded:
# '^(A|B)$' checks '^A$' and '^B$'.
#
# Usage: scripts/check-test-filters.sh   (from anywhere; exits 1 on a miss)
set -euo pipefail
cd "$(dirname "$0")/.."

# top_alts prints a regex's top-level alternatives, one per line: it
# splits at each | outside parentheses.
top_alts() {
	local re=$1 cur='' c i depth=0
	for ((i = 0; i < ${#re}; i++)); do
		c=${re:i:1}
		case $c in
		'(') depth=$((depth + 1)) ;;
		')') depth=$((depth - 1)) ;;
		'|')
			if ((depth == 0)); then
				printf '%s\n' "$cur"
				cur=''
				continue
			fi
			;;
		esac
		cur+=$c
	done
	printf '%s\n' "$cur"
}

# expand prints an alternative with its first group P(A|B)S expanded into
# PAS and PBS, one per line; an alternative without a group prints as is.
expand() {
	local alt=$1 part
	if [[ $alt =~ ^([^\(]*)\(([^\(\)]*)\)(.*)$ ]]; then
		local pre=${BASH_REMATCH[1]} body=${BASH_REMATCH[2]} post=${BASH_REMATCH[3]}
		IFS='|' read -r -a parts <<<"$body"
		for part in "${parts[@]}"; do
			printf '%s\n' "$pre$part$post"
		done
	else
		printf '%s\n' "$alt"
	fi
}

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
	while IFS= read -r alt; do
		checked=$((checked + 1))
		if ! grep -qE "$alt" <<<"$listed"; then
			echo "check-test-filters: -run '$regex' on $pkgs: no test matches '$alt'" >&2
			failed=$((failed + 1))
		fi
	done < <(top_alts "$regex" | while IFS= read -r a; do expand "$a"; done)
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' .github/workflows/ci.yml Makefile |
	grep -vE '^[[:space:]]*#' | grep -E '(go|\$\(GO\)) test ')

if ((failed > 0)); then
	echo "check-test-filters: $failed of $checked filters select no test" >&2
	exit 1
fi
echo "check-test-filters: all $checked filters select tests"
