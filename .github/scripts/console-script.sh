#!/usr/bin/env bash
# Runs the installed `bintab` console script over every subcommand and checks
# the exit codes of its error paths. Usage: .github/scripts/console-script.sh
# It writes its files into a temporary directory, removed on exit.
set -euo pipefail
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"

bintab --version && bintab vertices builtin:example1 --digits 3 --json > /dev/null
bintab sample builtin:water --method hitrun --count 2 > /dev/null
# a generic d=5 table: the walk's 32-cell chord from the relative-interior start
python -c 'import json; print(json.dumps({"d": 5, "kind": "counts", "cells": [(7 * k) % 19 + 1 for k in range(32)]}))' > d5.json
bintab sample d5.json --method hitrun --count 2 > /dev/null
# an observed-margin d=5 table with zero cells: its second-order table is the
# relative-interior point, so neither command runs the ray pass
python -c 'import json; print(json.dumps({"d": 5, "kind": "counts", "cells": [(10 * k) % 19 for k in range(32)]}))' > mod19.json
timeout 60 bintab ipf mod19.json --margins observed --digits 3 > /dev/null
timeout 60 bintab sample mod19.json --method hitrun --count 2 --margins observed --digits 3 > /dev/null
# a block of Dirichlet draws, validated once as a block
bintab sample builtin:water --method dirichlet --count 3 > /dev/null
bintab ipf builtin:water --json > /dev/null
bintab targets builtin:raters --digits 3 --margins observed --json > /dev/null
# the exact subcommands, which run without loading numpy
bintab analyze builtin:example1 --json > /dev/null
bintab constraints builtin:raters --json > /dev/null
bintab loglinear builtin:raters --json > /dev/null
bintab vertices builtin:example1 --digits 3 -o v.json
bintab mixture v.json --weights 1/2,1/2 -o mid.json
bintab decompose v.json mid.json > /dev/null
# 20-digit targets put H past the int64 bound: the Python-int path end to end
bintab vertices builtin:example1 --digits 20 -o v20.json
bintab mixture v20.json --weights 1/2,1/2 -o mid20.json
bintab decompose v20.json mid20.json > /dev/null
# an unreadable input and an unwritable -o are parse errors, exit 3
s=0; bintab analyze . || s=$?; test "$s" -eq 3
s=0; bintab vertices builtin:example1 -o missing/v.json || s=$?; test "$s" -eq 3
# targets past the --digits bound are a domain error, exit 4
s=0; bintab targets builtin:water --digits 100000 || s=$?; test "$s" -eq 4
