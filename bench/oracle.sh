#!/bin/sh
# Oracle for the insert-sample workload, run as `sh oracle.sh LOG A0 A1 ... INDEX`
# (lleval appends INDEX).  Prints answer A<INDEX> and appends INDEX to LOG so
# the benchmark counts calls from outside.  Only shell built-ins run, so one
# call costs one sh start-up and no interpreter start-up.
log=$1
shift
eval "index=\${$#}"
printf '%s\n' "$index" >> "$log"
shift "$index"
printf '%s\n' "$1"
