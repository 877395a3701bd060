#!/bin/sh
# Compare two revisions on the repository benchmark (BENCHMARK.json):
#
#   sh scripts/ab.sh REV_A REV_B [WORKLOAD ...]
#
# REV_A is the baseline (a change's parent), REV_B the candidate.  Both are
# checked out as git worktrees under .perfbench/ and removed on exit; each
# runs its own perfbench/run.sh with --trace 0 for BENCHMARK.json's
# run_seconds.  Every workload (default: all of BENCHMARK.json's) runs in
# ten pairs.  The two runs of pair i share seed i, and the side that runs
# first switches every pair, so the host's drift falls on both sides alike.
#
# For every end-to-end metric it prints both medians, their ratio B/A, the
# pairs each side won, each side's quartiles and a verdict for B against A:
#
#   gain          B won at least 9 pairs in 10, and the medians differ by
#                 more than A's interquartile range;
#   regression    B's median is worse than A's by more than the bound;
#   unresolved    a side's interquartile range exceeds the bound, so a
#                 change of that size cannot be told from noise (unless
#                 every run of B reads better than every run of A);
#   within bound  otherwise.
#
# A workload is a regression, too, if a larger share of B's operations
# failed.  The last line of output is the whole result as one JSON object,
# raw values included; a change that claims or rules out a performance
# difference commits it as BENCH_PR<n>.json.  Progress goes to stderr.
set -eu

usage() {
  echo "usage: sh scripts/ab.sh REV_A REV_B [WORKLOAD ...]" >&2
  exit 2
}

pairs=10
[ $# -ge 2 ] || usage

cd "$(git rev-parse --show-toplevel)"
rev_a=$(git rev-parse --verify --quiet "$1^{commit}") || usage
rev_b=$(git rev-parse --verify --quiet "$2^{commit}") || usage
shift 2

# BENCHMARK.json as "key value..." records: the run length, the workloads
# and each end-to-end metric with its direction and bound.
spec=$(awk '
  { text = text $0 " " }
  END {
    re = "\"[^\"]*\"[ \t]*:[ \t]*(\"[^\"]*\"|[-+.0-9eE]+|[[])|[}]"
    while (match(text, re)) {
      tok = substr(text, RSTART, RLENGTH)
      text = substr(text, RSTART + RLENGTH)
      if (tok == "}") {
        if (section == "end_to_end" && name != "")
          print "metric", name, better, bound
        name = ""
        continue
      }
      key = tok; sub(/"[ \t]*:.*/, "", key); sub(/^"/, "", key)
      val = tok; sub(/^"[^"]*"[ \t]*:[ \t]*/, "", val); gsub(/"/, "", val)
      if (val == "[") section = key
      else if (key == "run_seconds") print "run_seconds", val
      else if (section == "workloads" && key == "name") print "workload", val
      else if (key == "name") name = val
      else if (key == "better") better = val
      else if (key == "bound") bound = val
    }
  }' BENCHMARK.json)
metrics=$(echo "$spec" | awk '$1 == "metric" { print $2, $3, $4 }')
seconds=$(echo "$spec" | awk '$1 == "run_seconds" { print $2 }')
[ $# -gt 0 ] || set -- $(echo "$spec" | awk '$1 == "workload" { print $2 }')
[ -n "$metrics" ] && [ -n "$seconds" ] && [ $# -gt 0 ] || {
  echo "ab: cannot read workloads, metrics and run_seconds from BENCHMARK.json" >&2
  exit 2
}

work=.perfbench/ab.$$
cleanup() {
  for side in a b; do
    [ -d "$work/$side" ] && git worktree remove --force "$work/$side" >/dev/null 2>&1
  done
  rm -rf "$work"
  rmdir .perfbench 2>/dev/null || :
  git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM HUP
mkdir -p "$work"
git worktree add --quiet --detach "$work/a" "$rev_a"
git worktree add --quiet --detach "$work/b" "$rev_b"

# One run: perfbench's result line, reduced to "pair side key value" rows.
run() { # workload pair side
  out=$work/$1.$2.$3.out
  echo "ab: $1 pair $2/$pairs: $3 (seed $2)" >&2
  if (cd "$work/$3" && sh perfbench/run.sh --workload "$1" --seed "$2" \
        --seconds "$seconds" --trace 0) >"$out" 2>"$out.err"; then :; else
    echo "ab: $1 pair $2: $3 exited $?" >&2
    tail -5 "$out.err" >&2
  fi
  tail -1 "$out" | awk -v pair="$2" -v side="$3" -v names="$metrics" '
    function field(re) {
      return match(line, re) ? substr(line, RSTART + RLENGTH) + 0 : ""
    }
    {
      line = $0
      ok = line ~ /"correct": true/
      print pair, side, "correct", ok
      print pair, side, "attempted", field("\"attempted\": ")
      print pair, side, "failed", field("\"failed\": ")
      n = split(names, f, "\n")
      for (i = 1; i <= n; i++) {
        split(f[i], m, " ")
        v = field("\"" m[1] "\": [{]\"value\": ")
        if (ok && v != "") print pair, side, m[1], v
      }
    }' >>"$work/$1.tsv"
}

# Medians, quartiles, wins and verdicts of one workload's rows: a table on
# stdout, then the workload's JSON member as the last line.
summarize() { # workload
  awk -v workload="$1" -v names="$metrics" -v pairs="$pairs" '
    function sortn(x, n,   i, j, t) {
      for (i = 1; i < n; i++)
        for (j = i; j > 0 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
    }
    # Quantile p of sorted x[0..n-1], interpolating between order statistics.
    function quant(x, n, p,   h, lo) {
      h = (n - 1) * p; lo = int(h)
      return lo + 1 < n ? x[lo] + (h - lo) * (x[lo + 1] - x[lo]) : x[lo]
    }
    function num(v) { return sprintf("%.6g", v) }
    function list(side, name,   s, i) {
      s = ""
      for (i = 1; i <= pairs; i++)
        if ((i, side, name) in val) s = s (s == "" ? "" : ", ") val[i, side, name]
      return "[" s "]"
    }
    function stats(side, name,   x, n, i) {
      n = 0
      for (i = 1; i <= pairs; i++) if ((i, side, name) in val) x[n++] = val[i, side, name]
      sortn(x, n)
      cnt[side] = n; lo[side] = x[0]; hi[side] = x[n - 1]
      med[side] = n ? quant(x, n, 0.5) : 0
      q1[side] = n ? quant(x, n, 0.25) : 0
      q3[side] = n ? quant(x, n, 0.75) : 0
      return sprintf("{\"median\": %s, \"q1\": %s, \"q3\": %s, \"values\": %s}",
                     num(med[side]), num(q1[side]), num(q3[side]), list(side, name))
    }
    { val[$1, $2, $3] = $4 }
    END {
      for (i = 1; i <= pairs; i++)
        for (s = 0; s < 2; s++) {
          side = s ? "b" : "a"
          if (!val[i, side, "correct"]) bad[side]++
          att[side] += val[i, side, "attempted"]; fail[side] += val[i, side, "failed"]
        }
      share_a = att["a"] ? fail["a"] / att["a"] : 0
      share_b = att["b"] ? fail["b"] / att["b"] : 0
      printf "\n%s: %d pairs; incorrect runs A %d, B %d; failed operations A %d of %d, B %d of %d\n",
        workload, pairs, bad["a"], bad["b"], fail["a"], att["a"], fail["b"], att["b"]
      printf "%-14s %11s %11s %8s %7s %-23s %-23s %s\n", "metric", "A median",
        "B median", "B/A", "A:B won", "A quartiles", "B quartiles", "verdict"
      # A workload takes its worst metric verdict, in this order.
      rank["within bound"] = 0; rank["gain"] = 1; rank["unresolved"] = 2; rank["regression"] = 3
      verdict_w = share_b > share_a ? "regression" : "within bound"
      json = ""
      n = split(names, f, "\n")
      for (k = 1; k <= n; k++) {
        split(f[k], m, " "); name = m[1]; higher = m[2] == "higher"; bound = m[3]
        ja = stats("a", name); jb = stats("b", name)
        if (!cnt["a"] || !cnt["b"]) continue
        won["a"] = won["b"] = 0
        for (i = 1; i <= pairs; i++)
          if ((i, "a", name) in val && (i, "b", name) in val) {
            d = val[i, "b", name] - val[i, "a", name]
            if (d != 0) won[(d > 0) == higher ? "b" : "a"]++
          }
        gap = med["b"] - med["a"]
        rel = med["a"] ? (higher ? gap : -gap) / med["a"] : 0
        spread_a = med["a"] ? (q3["a"] - q1["a"]) / med["a"] : 0
        spread_b = med["b"] ? (q3["b"] - q1["b"]) / med["b"] : 0
        if (rel > 0 && won["b"] * 10 >= 9 * pairs && (gap < 0 ? -gap : gap) > q3["a"] - q1["a"])
          verdict = "gain"
        else if (rel < -bound) verdict = "regression"
        else if ((spread_a > bound || spread_b > bound) &&
                 !(higher ? lo["b"] > hi["a"] : hi["b"] < lo["a"])) verdict = "unresolved"
        else verdict = "within bound"
        if (rank[verdict] > rank[verdict_w]) verdict_w = verdict
        printf "%-14s %11.4g %11.4g %8.3f %3d:%-2d  %-23s %-23s %s\n", name, med["a"],
          med["b"], med["a"] ? med["b"] / med["a"] : 0, won["a"], won["b"],
          sprintf("%.4g..%.4g", q1["a"], q3["a"]), sprintf("%.4g..%.4g", q1["b"], q3["b"]),
          verdict
        json = json (json == "" ? "" : ", ") sprintf("\"%s\": {\"better\": \"%s\", " \
          "\"bound\": %s, \"ratio\": %s, \"won\": {\"a\": %d, \"b\": %d}, " \
          "\"a\": %s, \"b\": %s, \"verdict\": \"%s\"}", name, m[2], bound,
          num(med["a"] ? med["b"] / med["a"] : 0), won["a"], won["b"], ja, jb, verdict)
      }
      printf "\"%s\": {\"incorrect_runs\": {\"a\": %d, \"b\": %d}, " \
        "\"failed_share\": {\"a\": %s, \"b\": %s}, \"verdict\": \"%s\", \"metrics\": {%s}}\n",
        workload, bad["a"], bad["b"], num(share_a), num(share_b), verdict_w, json
    }' "$work/$1.tsv"
}

members=
for workload in "$@"; do
  : >"$work/$workload.tsv"
  pair=1
  while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then first=a second=b; else first=b second=a; fi
    run "$workload" "$pair" "$first"
    run "$workload" "$pair" "$second"
    pair=$((pair + 1))
  done
  summarize "$workload" >"$work/$workload.summary"
  sed '$d' "$work/$workload.summary"
  members="$members${members:+, }$(tail -1 "$work/$workload.summary")"
done

cpu=$(sed -n 's/^model name[ \t]*: //p' /proc/cpuinfo 2>/dev/null | head -1)
printf '{"a": "%s", "b": "%s", "pairs": %s, "seconds": %s, "host": {"nproc": %s, "cpu": "%s", "ocaml": "%s", "date": "%s"}, "workloads": {%s}}\n' \
  "$rev_a" "$rev_b" "$pairs" "$seconds" "$(nproc)" "$cpu" \
  "$(ocamlfind ocamlopt -version 2>/dev/null || echo unknown)" \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$members"
