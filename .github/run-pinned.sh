#!/usr/bin/env bash
# run-pinned.sh PKG TEST... runs the named top-level tests of one package
# under the race detector and fails unless every one of them ran and
# passed: a -run regex that matches no test passes silently, so a renamed
# or deleted oracle would otherwise drop out of CI unnoticed.
set -euo pipefail
pkg=$1
shift
regex="^($(IFS='|'; echo "$*"))\$"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -race "$pkg" -run "$regex" -v | tee "$out"
missing=0
for name in "$@"; do
	if ! grep -q -- "^--- PASS: $name (" "$out"; then
		echo "pinned test $name did not run and pass in $pkg" >&2
		missing=1
	fi
done
exit "$missing"
