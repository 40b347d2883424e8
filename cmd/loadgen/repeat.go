package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the agreement mode reads: the
// bounds live there and nowhere else.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if k := len(s); k%2 == 0 {
		return (s[k/2-1] + s[k/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(n=4)
// (exclusive method) — the statistic the benchmark's acceptance uses.
func spread(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(xs)
}

// runRepeat is the agreement mode: the whole set runs n times, pass i on
// seed+i; the first ⌈n/2⌉ passes form one set of runs and the rest the other.
// Per metric × workload it prints both medians, how much worse the second is
// than the first as a share of the first, and the bound; it fails when any
// pair differs by more than its bound in either direction.
func runRepeat(ctx context.Context, selected []workload, seed int64, seconds, n int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	values := make(map[string][]float64) // "workload/metric" → one value per pass
	for i := 0; i < n; i++ {
		fmt.Printf("\n#### pass %d of %d (seed %d)\n", i+1, n, seed+int64(i))
		results, err := runPass(ctx, selected, seed+int64(i), seconds, false)
		if err != nil {
			return err
		}
		for _, r := range results {
			if !r.correct {
				return errFailedChecks
			}
			for name, m := range r.endToEnd {
				key := r.workload.name + "/" + name
				values[key] = append(values[key], m.Value)
			}
		}
	}
	half := (n + 1) / 2
	fmt.Printf("\n%-14s %-16s %14s %14s %8s %6s %8s\n", "workload", "metric", "median A", "median B", "B worse", "bound", "spread")
	disagree := 0
	for _, w := range selected {
		for _, em := range bf.EndToEnd {
			vs := values[w.name+"/"+em.Name]
			if len(vs) != n {
				return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which %s did not report", em.Name, w.name)
			}
			a, b := median(vs[:half]), median(vs[half:])
			worse := (b - a) / a
			if em.Better == "higher" {
				worse = -worse
			}
			sp := "-"
			if n >= 4 {
				sp = fmt.Sprintf("%.3f", spread(vs))
			}
			verdict := ""
			if worse > em.Bound || worse < -em.Bound {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+8.3f %6.2f %8s%s\n", w.name, em.Name, a, b, worse, em.Bound, sp, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric × workload pairs differ by more than their bound", disagree)
	}
	return nil
}
