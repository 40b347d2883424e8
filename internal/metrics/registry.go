package metrics

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file implements a minimal process-wide metrics registry with
// Prometheus text exposition (format version 0.0.4), hand-rolled so the
// module stays dependency-free. The registry holds metric *families*; each
// family is collected on demand by a callback, so the hot paths keep their
// existing unsynchronized Counters/Histogram discipline and pay nothing until
// a scrape happens. Collect callbacks must take whatever lock protects the
// values they snapshot (e.g. an engine's worker locks).

// Kind is the exposition type of a metric family.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a latency Histogram snapshot.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair. Labels are ordered; collectors should emit
// them in a fixed order so scrapes are deterministic.
type Label struct {
	Name, Value string
}

// Sample is one collected time series of a family: a label set plus either a
// scalar Value (counter/gauge) or a Histogram snapshot.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   Histogram // used when the family is KindHistogram
}

// Collector produces the current samples of one family. It is called under
// the registry's read lock, possibly concurrently with other collectors.
type Collector func() []Sample

// Family names one family of a group (RegisterGroup).
type Family struct {
	Name string
	Help string
	Kind Kind
}

// GroupCollector produces the samples of every family in a group from one
// snapshot: element i holds the samples of the group's i-th family.
type GroupCollector func() [][]Sample

type family struct {
	name    string
	help    string
	kind    Kind
	collect Collector // nil for a group member
	group   *group
	index   int // position in the group
}

type group struct {
	collect GroupCollector
}

// Registry is a set of metric families with a text exposition. Register and
// WritePrometheus are safe for concurrent use; collection itself delegates
// thread safety to the collectors.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Register adds a family. The name must be a valid Prometheus metric name
// and unused; histogram family names must not carry the _bucket/_sum/_count
// suffixes the exposition appends.
func (r *Registry) Register(name, help string, kind Kind, collect Collector) error {
	if collect == nil {
		return fmt.Errorf("metrics: nil collector for %q", name)
	}
	return r.add(&family{name: name, help: help, kind: kind, collect: collect})
}

// RegisterGroup adds families that read one snapshot: a scrape calls collect
// once for the whole group, so every family of it shows the same instant and
// the snapshot's cost is paid once. Names follow Register's rules.
func (r *Registry) RegisterGroup(families []Family, collect GroupCollector) error {
	if collect == nil {
		return fmt.Errorf("metrics: nil collector for group of %d families", len(families))
	}
	g := &group{collect: collect}
	fams := make([]*family, len(families))
	for i, f := range families {
		fams[i] = &family{name: f.Name, help: f.Help, kind: f.Kind, group: g, index: i}
	}
	return r.add(fams...)
}

// add registers fams all or none.
func (r *Registry) add(fams ...*family) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, len(fams))
	for _, f := range fams {
		if !metricNameRE.MatchString(f.name) {
			return fmt.Errorf("metrics: invalid metric name %q", f.name)
		}
		if _, dup := r.byName[f.name]; dup || seen[f.name] {
			return fmt.Errorf("metrics: metric %q already registered", f.name)
		}
		seen[f.name] = true
	}
	for _, f := range fams {
		r.byName[f.name] = f
		r.families = append(r.families, f)
	}
	return nil
}

// MustRegister is Register that panics on error — for wiring code where a
// registration failure is a programming bug.
func (r *Registry) MustRegister(name, help string, kind Kind, collect Collector) {
	if err := r.Register(name, help, kind, collect); err != nil {
		panic(err)
	}
}

// MustRegisterGroup is RegisterGroup that panics on error.
func (r *Registry) MustRegisterGroup(families []Family, collect GroupCollector) {
	if err := r.RegisterGroup(families, collect); err != nil {
		panic(err)
	}
}

// WritePrometheus writes every family in text exposition format, sorted by
// family name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var sb strings.Builder
	snaps := make(map[*group][][]Sample) // one collect per group per scrape
	for _, f := range fams {
		var samples []Sample
		if f.group == nil {
			samples = f.collect()
		} else {
			snap, ok := snaps[f.group]
			if !ok {
				snap = f.group.collect()
				snaps[f.group] = snap
			}
			if f.index < len(snap) {
				samples = snap[f.index]
			}
		}
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range samples {
			if f.kind == KindHistogram {
				writeHistogramSample(&sb, f.name, s)
			} else {
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, formatLabels(s.Labels), formatValue(s.Value))
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeHistogramSample expands one Histogram into the cumulative _bucket
// series plus _sum and _count, with bucket bounds converted to seconds as
// Prometheus convention requires.
func writeHistogramSample(sb *strings.Builder, name string, s Sample) {
	var cum uint64
	for i, bound := range BucketBoundsNanos {
		cum += s.Hist.Buckets[i]
		le := strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, formatLabels(append(s.Labels[:len(s.Labels):len(s.Labels)], Label{"le", le})), cum)
	}
	fmt.Fprintf(sb, "%s_bucket%s %d\n", name, formatLabels(append(s.Labels[:len(s.Labels):len(s.Labels)], Label{"le", "+Inf"})), s.Hist.Count)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, formatLabels(s.Labels), formatValue(float64(s.Hist.SumNanos)/1e9))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, formatLabels(s.Labels), s.Hist.Count)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(h string) string { return helpEscaper.Replace(h) }
