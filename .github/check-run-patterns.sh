#!/usr/bin/env bash
# Fails when an alternative of a `go test ... -run '<pattern>'` command in
# the workflows matches no test, fuzz target or example of the package the
# command tests: a renamed or deleted test would otherwise drop out of its
# step silently. '^$' (run nothing, before -bench or -fuzz) is skipped; of an
# alternative with subtest levels ('Test/sub') the test level is checked.
# Run from the repository root.
set -euo pipefail

fail=0
declare -A listed
for wf in .github/workflows/*.yml; do
	while IFS= read -r cmd; do
		pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$cmd")
		[ "$pattern" = '^$' ] && continue
		pkg=$(tr ' ' '\n' <<<"$cmd" | grep -E '^\.(/|$)' | head -n 1)
		if [ -z "${listed[$pkg]+set}" ]; then
			listed[$pkg]=$(go test -list '.*' "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
		fi
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			# go test matches the levels after a '/' against subtests,
			# which -list does not show: check the test level.
			alt=${alt%%/*}
			if ! grep -qE -- "$alt" <<<"${listed[$pkg]}"; then
				echo "$wf: -run alternative '$alt' matches no test in $pkg"
				fail=1
			fi
		done
	done < <(grep -oE "go test [^&]*-run '[^']*'[^&]*" "$wf")
done
exit $fail
