// Command benchdiff guards against performance regressions: it runs
// the repo's fixed regression benchmarks (BenchmarkReg* in
// benchreg_test.go) and compares ns/op and allocs/op against the
// checked-in baselines, failing when either metric regresses by more
// than the threshold (default 20%). The set is partitioned into three
// pinned files: the serving-path benchmarks (BenchmarkRegServe*
// cache-hit/miss/batch allocation budget) against BENCH_serve.json,
// the optimization-layer benchmarks (BenchmarkRegOpt* cost-kernel set
// plus BenchmarkRegFingerprint/BenchmarkRegBatch* canonical-identity
// set) against BENCH_opt.json, everything else against BENCH_qon.json;
// all three files gate.
//
// Each side's test binary is built once (`go test -c`) and every
// measurement runs that binary. Benchmarks run with -benchtime 300x
// -count 5, in three separate passes, and the minimum across all
// fifteen counts is compared — the minimum is the least noisy estimator of a benchmark's
// true cost on a shared machine. (30x proved noise-dominated for the
// microsecond-scale benchmarks: scheduling jitter on a single-core VM
// swamps a 240µs measurement window. And a single pass proved
// window-correlated: -count repetitions run back to back, so all five
// samples share one load regime of a noisy host — pinning a baseline
// during an idle burst made every steady-state compare look like a
// 1.3× regression. Multiple passes spread each benchmark's samples
// across the suite's whole wall time, so the per-benchmark minimum
// spans load swings on both the -update and the compare side.)
//
// A/B mode (-base REV) builds REV in a temporary git worktree and runs
// the same passes there, alternating with this tree's passes on the
// same machine (parent first, then change first, and so on), and fails
// when the change/parent ratio of either ns/op or allocs/op exceeds the
// threshold. Both sides see the same load swings, so a slower host
// moves both and the ratio stays put, while a code regression moves
// only the change. A benchmark whose ns/op ratio breaches the threshold
// is a suspect, not yet a failure: a neighbour's load spike inflates
// one side's pass, and a minimum over three passes still catches it.
// Each suspect is re-measured with the same two binaries, one benchmark
// run at a time, each run lasting at least confirmWindow, the two sides
// interleaved over confirmRounds rounds, and it fails only when the
// change's median over those runs exceeds the threshold times the
// parent's. allocs/op does not drift with the host, so in this mode it
// is also checked against the pinned files; the pinned ns/op are the
// absolute record, re-pinned with -update.
//
// Usage (from the repository root):
//
//	go run ./scripts/benchdiff            # compare against baselines
//	go run ./scripts/benchdiff -update    # rewrite both baselines
//	go run ./scripts/benchdiff -base REV  # A/B against REV (e.g. the merge-base)
//	go run ./scripts/benchdiff -inject 2  # self-test: fake a 2× slowdown
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// optPrefixes route a benchmark into the optimization-layer baseline
// file: the tiered cost-kernel set plus the canonical-identity set the
// batch API added (fingerprinting, batch dedup throughput), the cluster
// coordinator's per-request ring-routing cost, the replica digest the
// anti-entropy loop leans on, and the adaptive router's per-request
// classification cost.
var optPrefixes = []string{"BenchmarkRegOpt", "BenchmarkRegFingerprint", "BenchmarkRegBatch", "BenchmarkRegRing", "BenchmarkRegReplica", "BenchmarkRegClassify"}

// isServeBench routes the serving-hot-path set (cache-hit, cache-miss
// full-rung, batch dedup) into BENCH_serve.json — the allocation
// budget of the pooled request path. Checked before isOptBench:
// BenchmarkRegServeBatch must not fall into the BenchmarkRegBatch
// canonical-identity set.
func isServeBench(b string) bool { return strings.HasPrefix(b, "BenchmarkRegServe") }

func isOptBench(b string) bool {
	if isServeBench(b) {
		return false
	}
	for _, p := range optPrefixes {
		if strings.HasPrefix(b, p) {
			return true
		}
	}
	return false
}

// baselineFiles maps each pinned file to its membership test.
var baselineFiles = []struct {
	name    string
	matches func(bench string) bool
}{
	{"BENCH_serve.json", isServeBench},
	{"BENCH_opt.json", isOptBench},
	{"BENCH_qon.json", func(b string) bool { return !isServeBench(b) && !isOptBench(b) }},
}

// measurement is one benchmark's pinned numbers.
type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// baseline is the schema of each BENCH_*.json file.
type baseline struct {
	// Comment documents the file for people reading the diff.
	Comment    string                 `json:"comment"`
	Benchmarks map[string]measurement `json:"benchmarks"`
}

// benchLine matches `BenchmarkRegFoo-8  30  12345 ns/op  678 B/op  9 allocs/op`.
var benchLine = regexp.MustCompile(`^(BenchmarkReg\w*)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ B/op\s+(\d+) allocs/op)?`)

func main() { os.Exit(run()) }

// run is main with an exit code, so that the A/B worktree is removed
// on every path out.
func run() int {
	update := flag.Bool("update", false, "rewrite the baseline files from this run")
	base := flag.String("base", "", "A/B mode: gate the change/parent ratio against this git revision, built in a temporary worktree")
	inject := flag.Float64("inject", 1.0, "multiply measured ns/op by this factor (CI self-test)")
	threshold := flag.Float64("threshold", 1.20, "fail when measured/baseline exceeds this ratio")
	flag.Parse()
	if *update && *base != "" {
		return fail(fmt.Errorf("-update pins this tree's numbers; it does not take -base"))
	}

	dirs := []string{"."}
	if *base != "" {
		dir, cleanup, err := worktree(*base)
		if err != nil {
			return fail(err)
		}
		defer cleanup()
		dirs = []string{dir, "."}
	}
	sides, cleanup, err := buildSides(dirs)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	runs := make([]map[string]measurement, len(sides))
	for i := range runs {
		runs[i] = map[string]measurement{}
	}
	if err := runBenchmarks(sides, "^BenchmarkReg", benchPasses, runs); err != nil {
		return fail(err)
	}
	measured := runs[len(runs)-1]
	if len(measured) == 0 {
		return fail(fmt.Errorf("no BenchmarkReg* benchmarks found — run from the repository root"))
	}
	if *base != "" {
		// Re-measure, on both sides, every benchmark whose ns/op ratio
		// breached the threshold before failing it.
		var suspects []string
		for name, m := range measured {
			if p, ok := runs[0][name]; ok && m.NsPerOp**inject > *threshold*p.NsPerOp {
				suspects = append(suspects, name)
			}
		}
		if len(suspects) > 0 {
			sort.Strings(suspects)
			fmt.Printf("benchdiff: confirming %s over %d interleaved runs per side\n", strings.Join(suspects, ", "), confirmRounds)
			if err := confirm(sides, suspects, runs); err != nil {
				return fail(err)
			}
		}
	}
	for name, m := range measured {
		m.NsPerOp *= *inject
		measured[name] = m
	}

	var failures []string
	if *base != "" {
		failures = compareAB(*base, measured, runs[0], *threshold)
	}
	for _, file := range baselineFiles {
		part := map[string]measurement{}
		for name, m := range measured {
			if file.matches(name) {
				part[name] = m
			}
		}
		if *update {
			if err := writeBaseline(file.name, part); err != nil {
				return fail(err)
			}
			continue
		}
		failures = append(failures, compare(file.name, part, *threshold, *base == "")...)
	}
	if *update {
		return 0
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d failure(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		return 1
	}
	fmt.Println("benchdiff: all benchmarks within threshold")
	return 0
}

// worktree checks rev out into a temporary git worktree and returns its
// directory and a cleanup that removes the worktree again.
func worktree(rev string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "benchdiff-base-")
	if err != nil {
		return "", nil, err
	}
	out, err := exec.Command("git", "worktree", "add", "--detach", dir, rev).CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("git worktree add %s: %w\n%s", rev, err, out)
	}
	fmt.Printf("benchdiff: parent %s checked out in %s\n", rev, dir)
	return dir, func() {
		if out, err := exec.Command("git", "worktree", "remove", "--force", dir).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: git worktree remove %s: %v\n%s", dir, err, out)
		}
		os.RemoveAll(dir)
	}, nil
}

// compareAB gates the change against the parent run: a benchmark fails
// when its change/parent ratio of ns/op or of allocs/op exceeds the
// threshold (for a parent that allocated nothing, when the change
// allocates at all). Benchmarks only one side has are listed, not
// gated; the pinned files catch vanished ones.
func compareAB(rev string, measured, parent map[string]measurement, threshold float64) []string {
	fmt.Printf("\nA/B against %s (change/parent; fails above %.2fx):\n", rev, threshold)
	var failures []string
	for _, name := range sortedKeys(measured) {
		m := measured[name]
		p, ok := parent[name]
		if !ok {
			fmt.Printf("%-34s %10.0f ns/op  %6d allocs/op  new, not in parent\n", name, m.NsPerOp, m.AllocsPerOp)
			continue
		}
		status := "ok"
		nsRatio := m.NsPerOp / p.NsPerOp
		if nsRatio > threshold {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs parent %.0f (%.2fx > %.2fx)",
				name, m.NsPerOp, p.NsPerOp, nsRatio, threshold))
		}
		allocRatio := float64(m.AllocsPerOp) / float64(max(p.AllocsPerOp, 1))
		if p.AllocsPerOp == 0 && m.AllocsPerOp > 0 || p.AllocsPerOp > 0 && allocRatio > threshold {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs parent %d (%.2fx > %.2fx)",
				name, m.AllocsPerOp, p.AllocsPerOp, allocRatio, threshold))
		}
		fmt.Printf("%-34s %10.0f ns/op vs %10.0f (%.2fx)  allocs %6d vs %6d (%.2fx)  %s\n",
			name, m.NsPerOp, p.NsPerOp, nsRatio, m.AllocsPerOp, p.AllocsPerOp, allocRatio, status)
	}
	for _, name := range sortedKeys(parent) {
		if _, ok := measured[name]; !ok {
			fmt.Printf("%-34s only in parent\n", name)
		}
	}
	fmt.Println()
	return failures
}

func writeBaseline(path string, measured map[string]measurement) error {
	b := baseline{
		Comment: "benchdiff baseline: minimum ns/op and allocs/op of BenchmarkReg* " +
			"over 3 passes of -benchtime 300x -count 5; regenerate with `go run ./scripts/benchdiff -update`",
		Benchmarks: measured,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: wrote %s (%d benchmarks)\n", path, len(measured))
	return nil
}

// compare gates one partition against its baseline file and returns the
// accumulated failures (threshold breaches, unknown or vanished
// benchmarks). checkNs false gates allocs/op alone — the A/B mode,
// where ns/op is gated against the parent instead.
func compare(path string, measured map[string]measurement, threshold float64, checkNs bool) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%v (create it with `go run ./scripts/benchdiff -update`)", err)}
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return []string{fmt.Sprintf("parsing %s: %v", path, err)}
	}

	var failures []string
	for _, name := range sortedKeys(measured) {
		m := measured[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not in %s (run -update)", name, path))
			continue
		}
		nsRatio := m.NsPerOp / b.NsPerOp
		status := "ok"
		if checkNs && nsRatio > threshold {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx)",
				name, m.NsPerOp, b.NsPerOp, nsRatio, threshold))
		}
		allocNote := ""
		if b.AllocsPerOp > 0 {
			allocRatio := float64(m.AllocsPerOp) / float64(b.AllocsPerOp)
			allocNote = fmt.Sprintf("  allocs %d vs %d", m.AllocsPerOp, b.AllocsPerOp)
			if allocRatio > threshold {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (%.2fx > %.2fx)",
					name, m.AllocsPerOp, b.AllocsPerOp, allocRatio, threshold))
			}
		}
		nsNote := ""
		if !checkNs {
			nsNote = " not gated"
		}
		fmt.Printf("%-34s %10.0f ns/op  (baseline %10.0f, %.2fx%s)%s  %s\n",
			name, m.NsPerOp, b.NsPerOp, nsRatio, nsNote, allocNote, status)
	}
	for name := range base.Benchmarks {
		if _, ok := measured[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: in %s but no longer measured", name, path))
		}
	}
	return failures
}

// benchPasses is how many separate test-binary runs the regression
// set runs in each tree: each pass walks the whole suite, so one
// benchmark's samples are spread minutes apart and its minimum spans
// the host's load swings instead of sharing a single regime.
const benchPasses = 3

// confirmRounds is how many runs of each suspect A/B mode makes per
// side, interleaved, before comparing the two medians: a load burst on
// a shared host moves a minority of one side's runs, which the median
// ignores, while a code regression moves every run of the change.
const confirmRounds = 11

// benchIters is the -benchtime iteration count of every pass. A confirm
// run makes at least that many and enough to last confirmWindow at the
// parent's pace: 300 runs of a sub-microsecond benchmark last well
// under a millisecond, a window in which the allocator and GC state the
// benchmark's set-up leaves behind, not the code under test, sets the
// time per op.
const (
	benchIters    = 300
	confirmWindow = 100e6 // ns
)

// side is one tree under test: its directory and the test binary built
// from it.
type side struct{ dir, bin string }

// buildSides builds one test binary per directory into a temporary
// directory, which the returned cleanup removes. Building once keeps
// the compiler out of every measured window and runs the same binary
// in every pass and confirm round.
func buildSides(dirs []string) ([]side, func(), error) {
	tmp, err := os.MkdirTemp("", "benchdiff-bin-")
	if err != nil {
		return nil, nil, err
	}
	cleanup := func() { os.RemoveAll(tmp) }
	sides := make([]side, len(dirs))
	for i, dir := range dirs {
		sides[i] = side{dir: dir, bin: filepath.Join(tmp, fmt.Sprintf("side%d.test", i))}
		cmd := exec.Command("go", "test", "-c", "-o", sides[i].bin, ".")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("go test -c in %s: %w\n%s", dir, err, out)
		}
	}
	return sides, cleanup, nil
}

// confirm re-measures each suspect one benchmark run at a time,
// alternating which side runs first from round to round, and replaces
// the suspect's ns/op in runs[i] by the median of its runs on sides[i].
func confirm(sides []side, suspects []string, runs []map[string]measurement) error {
	for _, name := range suspects {
		iters := max(benchIters, int(math.Ceil(confirmWindow/runs[0][name].NsPerOp)))
		samples := make([][]float64, len(sides))
		for round := 0; round < confirmRounds; round++ {
			for _, i := range order(len(sides), round) {
				one := map[string]measurement{}
				if err := runPass(sides[i], "^"+name+"$", iters, 1, one); err != nil {
					return err
				}
				m, ok := one[name]
				if !ok {
					return fmt.Errorf("%s in %s: no result", name, sides[i].dir)
				}
				samples[i] = append(samples[i], m.NsPerOp)
			}
		}
		for i := range sides {
			m := runs[i][name]
			m.NsPerOp = median(samples[i])
			runs[i][name] = m
		}
		fmt.Printf("benchdiff: %s median ns/op over %dx runs: parent %.0f, change %.0f\n",
			name, iters, runs[0][name].NsPerOp, runs[len(runs)-1][name].NsPerOp)
	}
	return nil
}

// order lists the side indices for one round: the first side leads on
// even rounds and the last on odd ones.
func order(n, round int) []int {
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
		if round%2 == 1 {
			idx[k] = n - 1 - k
		}
	}
	return idx
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// runBenchmarks runs the benchmarks matching pattern passes times on
// each side, folding the minimum ns/op and allocs/op per benchmark
// across every count of every pass into runs[i] for sides[i]. With two
// sides (parent and change) the passes alternate, the first side
// leading on even passes and the second on odd ones.
func runBenchmarks(sides []side, pattern string, passes int, runs []map[string]measurement) error {
	for pass := 0; pass < passes; pass++ {
		for _, i := range order(len(sides), pass) {
			if err := runPass(sides[i], pattern, benchIters, 5, runs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPass runs the benchmarks matching pattern count times on s, iters
// iterations each, from its directory, and folds each one's minimum
// ns/op and allocs/op into measured.
func runPass(s side, pattern string, iters, count int, measured map[string]measurement) error {
	cmd := exec.Command(s.bin, "-test.run", "^$", "-test.bench", pattern, "-test.benchmem",
		"-test.benchtime", strconv.Itoa(iters)+"x", "-test.count", strconv.Itoa(count), "-test.timeout", "10m")
	cmd.Dir = s.dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s in %s: %w\n%s", pattern, s.dir, err, out)
	}
	parseBench(out, measured)
	return nil
}

// parseBench folds each benchmark's minimum ns/op and allocs/op in the
// test binary's output into measured.
func parseBench(out []byte, measured map[string]measurement) {
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		var allocs int64
		if m[3] != "" {
			allocs, _ = strconv.ParseInt(m[3], 10, 64)
		}
		cur, seen := measured[m[1]]
		if !seen || ns < cur.NsPerOp {
			cur.NsPerOp = ns
		}
		if !seen || allocs < cur.AllocsPerOp {
			cur.AllocsPerOp = allocs
		}
		measured[m[1]] = cur
	}
}

func sortedKeys(m map[string]measurement) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	return 1
}
