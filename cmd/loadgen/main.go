// Command loadgen is the repository's benchmark: it generates a seeded
// social graph and post stream, builds and boots the real firehosed in each
// deployment shape from the committed configs under bench/configs, drives it
// over exactly two connections (one keep-alive ingest connection that also
// carries the admin checkpoint calls, one SSE subscription), verifies every
// output bit-exact against an in-process core.SharedMultiUser reference (and,
// at seed 1, the committed goldens under bench/golden), and reports six
// end-to-end metrics per workload. With -trace 1 a second, in-process pass
// over the first 20% of the workload records spans at the layer seams and
// prints a per-layer budget whose rows sum to the end-to-end per-post time.
//
//	go run ./cmd/loadgen -seed 1                    # all workloads
//	go run ./cmd/loadgen -workload batch-par -trace 1
//	go run ./cmd/loadgen -repeat 5                  # agreement check
//	go run ./cmd/loadgen -seed 1 -update-golden     # rewrite bench/golden
//
// The last line of standard output of a single-workload run is the JSON
// object BENCHMARK.json's contract asks for. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all): "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same graph, stream and expectations")
		seconds = flag.Int("seconds", 10, "run length: fixes the post count at seconds × the workload's probe rate")
		trace   = flag.Int("trace", 0, "1: also run the traced in-process pass and report the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the whole set N times on seeds seed..seed+N-1 and compare the two halves against the bounds in BENCHMARK.json")
		update  = flag.Bool("update-golden", false, "rewrite bench/golden/<workload>.seed<seed>.json from the in-process reference")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "loadgen: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v (have %s)\n", err, workloadNames())
			os.Exit(2)
		}
		selected = []workload{w}
	}

	// Children are started under ctx: a signal cancels it, which kills them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, selected, *seed, *seconds, *trace == 1, *repeat, *update)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

var errFailedChecks = errors.New("one or more checks failed")

func run(ctx context.Context, selected []workload, seed int64, seconds int, trace bool, repeat int, update bool) error {
	printEnvironment()
	if update {
		return updateGoldens(ctx, selected, seed, seconds)
	}
	if repeat > 1 {
		return runRepeat(ctx, selected, seed, seconds, repeat)
	}
	results, err := runPass(ctx, selected, seed, seconds, trace)
	if err != nil {
		return err
	}
	for _, r := range results {
		if !r.correct {
			return errFailedChecks
		}
	}
	return nil
}

// runPass runs the selected workloads once on one seed, printing each
// workload's report and result line as it completes.
func runPass(ctx context.Context, selected []workload, seed int64, seconds int, trace bool) ([]*result, error) {
	e, cleanup, err := newEnv(ctx, seed, seconds, trace)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var results []*result
	for _, w := range selected {
		r, err := runWorkload(ctx, e, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(r)
		if err := printResultLine(r, trace); err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// updateGoldens rewrites the committed expectations from the reference.
func updateGoldens(ctx context.Context, selected []workload, seed int64, seconds int) error {
	e, cleanup, err := newEnv(ctx, seed, seconds, false)
	if err != nil {
		return err
	}
	defer cleanup()
	for _, w := range selected {
		stream, err := e.inputs.stream(w.stream)
		if err != nil {
			return err
		}
		exp, err := reference(w, e.inputs, stream[:w.posts(seconds)])
		if err != nil {
			return err
		}
		if err := writeGolden(e.root, exp.golden); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d posts)\n", goldenPath(e.root, w.name, seed), exp.Posts)
	}
	return nil
}

// printEnvironment records what the numbers were measured on.
func printEnvironment() {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Printf("loadgen: num_cpu=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// printReport prints one workload's metrics by name with units and sample
// counts, and after a traced pass the per-layer budget.
func printReport(r *result) {
	fmt.Printf("\n== %s (seed %d, %d posts, %s) ==\n", r.workload.name, r.seed, r.posts, r.workload.why)
	fmt.Printf("   golden: %s\n", r.golden)
	for _, name := range sortedKeys(r.endToEnd) {
		m := r.endToEnd[name]
		line := fmt.Sprintf("   %-18s %14.4f %-4s", name, m.Value, m.Unit)
		if k, ok := r.samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Println(line)
	}
	if !r.workload.openLoop {
		fmt.Printf("   posts_per_s by checkpoint interval: min %.0f, median %.0f, max %.0f\n",
			slices.Min(r.intervalRates), quantile(r.intervalRates, 0.5), slices.Max(r.intervalRates))
	}
	fmt.Printf("   %-18s %14d\n   %-18s %14d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	if r.failure != "" {
		fmt.Printf("   first failure: %s\n", r.failure)
	}
	if r.perLayer != nil {
		printBudget(r)
		for _, name := range sortedKeys(r.perLayer) {
			m := r.perLayer[name]
			fmt.Printf("   %-40s %16.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResultLine prints the contract's result object: the end-to-end
// metrics with tracing off, the per-layer metrics after a traced pass.
func printResultLine(r *result, trace bool) error {
	metrics := r.endToEnd
	if trace {
		metrics = r.perLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
