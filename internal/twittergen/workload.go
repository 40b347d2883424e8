package twittergen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"firehose/internal/core"
)

// This file is the adversarial-workload DSL: a declarative Workload spec
// (JSON-parseable, strictly validated) plus composable generators that layer
// hostile stream shapes over the well-behaved background traffic of
// GenerateStream. The paper's evaluation streams calibrated Twitter-like
// traffic; a production diversifier also has to survive the shapes that
// traffic never takes — flash crowds, celebrity cascades, bot floods,
// intensity whiplash, and a follow graph that refuses to stay frozen.

// EventKind names one adversarial stream shape.
type EventKind string

const (
	// FlashCrowd models one breaking event: a burst of near-duplicate posts
	// (perturbations of a single seed text) from many distinct authors at a
	// fixed aggregate rate.
	FlashCrowd EventKind = "flash-crowd"
	// CelebrityCascade models a Zipf-head author's post fanning out: the head
	// posts once, then a retweet wave of perturbed copies follows from many
	// authors.
	CelebrityCascade EventKind = "celebrity-cascade"
	// Botnet models a coordinated campaign: byte-identical text — identical
	// SimHash fingerprints — posted by disjoint authors, the shape that
	// content-only dedup catches trivially but the author dimension must not
	// let through twice per similar-author clique.
	Botnet EventKind = "botnet"
	// DiurnalWhiplash modulates extra background-shaped traffic with a
	// sinusoid, swinging the arrival rate between near-silence and a
	// multiple of the mean within each period — the λt window fills and
	// drains violently.
	DiurnalWhiplash EventKind = "diurnal-whiplash"
	// GraphChurn emits no posts: it schedules followee-set rewrites
	// (authorsim.MutableVectors.SetFollowees material) that shrink, grow or
	// rewire random authors' follow lists mid-stream.
	GraphChurn EventKind = "graph-churn"
)

func validEventKind(k EventKind) bool {
	switch k {
	case FlashCrowd, CelebrityCascade, Botnet, DiurnalWhiplash, GraphChurn:
		return true
	}
	return false
}

// Event is one scheduled adversarial episode inside a Workload. Times are
// relative to the workload start. Which fields are meaningful depends on
// Kind; Validate rejects a field set outside its kind's schema, so a spec
// cannot silently carry knobs its kind ignores.
type Event struct {
	// Kind selects the shape; see the EventKind constants.
	Kind EventKind `json:"kind"`
	// AtMillis is the event onset, relative to the workload start.
	AtMillis int64 `json:"at_millis"`
	// DurationMillis is the event length.
	DurationMillis int64 `json:"duration_millis"`

	// PostsPerMinute is the aggregate event post rate (mean rate for
	// diurnal-whiplash, whose instantaneous rate oscillates around it).
	// Used by every kind except graph-churn.
	PostsPerMinute float64 `json:"posts_per_minute,omitempty"`
	// Authors is the number of distinct participating authors (flash-crowd
	// posters, cascade retweeters, botnet accounts).
	Authors int `json:"authors,omitempty"`
	// Author pins the celebrity-cascade head; -1 selects the Zipf head
	// (author 0, the most-followed celebrity). Only celebrity-cascade uses
	// it.
	Author int32 `json:"author,omitempty"`
	// Edits bounds the perturbation edit count per near-duplicate post
	// (flash-crowd, celebrity-cascade). Botnet posts are byte-identical by
	// definition and must leave it zero.
	Edits int `json:"edits,omitempty"`

	// Amplitude is the diurnal-whiplash modulation depth in (0,1]: the
	// instantaneous rate swings between (1−A)× and (1+A)× PostsPerMinute.
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeriodMillis is the diurnal-whiplash oscillation period.
	PeriodMillis int64 `json:"period_millis,omitempty"`

	// RewiresPerMinute is the graph-churn rate of followee-set rewrites.
	RewiresPerMinute float64 `json:"rewires_per_minute,omitempty"`
}

// BackgroundSpec layers well-behaved GenerateStream-shaped traffic under the
// events: diurnal Poisson arrivals from every author.
type BackgroundSpec struct {
	// PostsPerAuthorPerDay is the mean Poisson post rate per author.
	PostsPerAuthorPerDay float64 `json:"posts_per_author_per_day"`
	// DupProbability is the near-duplicate injection probability of the
	// background traffic, as in StreamConfig.
	DupProbability float64 `json:"dup_probability"`
}

// Workload is the top-level DSL spec: a named, seeded, time-bounded schedule
// of adversarial events over optional background traffic. A Workload fully
// determines its generated stream — GenerateWorkload derives its RNG from
// Seed, so equal specs produce byte-equal streams.
type Workload struct {
	Name           string          `json:"name"`
	Seed           int64           `json:"seed"`
	StartMillis    int64           `json:"start_millis"`
	DurationMillis int64           `json:"duration_millis"`
	Background     *BackgroundSpec `json:"background,omitempty"`
	Events         []Event         `json:"events"`
}

// Validate reports the first schema violation, or nil.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("twittergen: workload needs a name")
	}
	if w.StartMillis < 0 {
		return fmt.Errorf("twittergen: workload %q: StartMillis must be non-negative, got %d", w.Name, w.StartMillis)
	}
	if w.DurationMillis <= 0 {
		return fmt.Errorf("twittergen: workload %q: DurationMillis must be positive, got %d", w.Name, w.DurationMillis)
	}
	if b := w.Background; b != nil {
		if b.PostsPerAuthorPerDay <= 0 || math.IsInf(b.PostsPerAuthorPerDay, 0) || math.IsNaN(b.PostsPerAuthorPerDay) {
			return fmt.Errorf("twittergen: workload %q: background PostsPerAuthorPerDay must be positive and finite", w.Name)
		}
		if b.DupProbability < 0 || b.DupProbability > 1 || math.IsNaN(b.DupProbability) {
			return fmt.Errorf("twittergen: workload %q: background DupProbability out of [0,1]", w.Name)
		}
	}
	if len(w.Events) == 0 && w.Background == nil {
		return fmt.Errorf("twittergen: workload %q: empty — no events and no background", w.Name)
	}
	for i := range w.Events {
		if err := w.Events[i].validate(w.DurationMillis); err != nil {
			return fmt.Errorf("twittergen: workload %q event %d: %w", w.Name, i, err)
		}
	}
	return nil
}

// validate checks one event against its kind's schema. total is the workload
// duration the event must fit inside.
func (e *Event) validate(total int64) error {
	if !validEventKind(e.Kind) {
		return fmt.Errorf("unknown kind %q", string(e.Kind))
	}
	if e.AtMillis < 0 || e.DurationMillis <= 0 || e.AtMillis+e.DurationMillis > total {
		return fmt.Errorf("%s: window [%d,%d+%d) outside workload duration %d",
			e.Kind, e.AtMillis, e.AtMillis, e.DurationMillis, total)
	}
	// Rate-bearing kinds share the rate/author checks; the per-kind switch
	// below rejects knobs foreign to the kind, so an over-specified spec
	// fails loudly instead of having fields silently ignored.
	needRate := func() error {
		if e.PostsPerMinute <= 0 || math.IsInf(e.PostsPerMinute, 0) || math.IsNaN(e.PostsPerMinute) {
			return fmt.Errorf("%s: PostsPerMinute must be positive and finite, got %v", e.Kind, e.PostsPerMinute)
		}
		return nil
	}
	needAuthors := func() error {
		if e.Authors <= 0 {
			return fmt.Errorf("%s: Authors must be positive, got %d", e.Kind, e.Authors)
		}
		return nil
	}
	forbid := func(cond bool, field string) error {
		if cond {
			return fmt.Errorf("%s: field %s is not part of this kind's schema", e.Kind, field)
		}
		return nil
	}
	checks := []error{}
	switch e.Kind {
	case FlashCrowd:
		checks = append(checks, needRate(), needAuthors(),
			forbid(e.Edits < 1, "Edits (must be >= 1)"),
			forbid(e.Author != 0, "Author"),
			forbid(e.Amplitude != 0, "Amplitude"),
			forbid(e.PeriodMillis != 0, "PeriodMillis"),
			forbid(e.RewiresPerMinute != 0, "RewiresPerMinute"))
	case CelebrityCascade:
		checks = append(checks, needRate(), needAuthors(),
			forbid(e.Edits < 1, "Edits (must be >= 1)"),
			forbid(e.Author < -1, "Author (must be >= -1)"),
			forbid(e.Amplitude != 0, "Amplitude"),
			forbid(e.PeriodMillis != 0, "PeriodMillis"),
			forbid(e.RewiresPerMinute != 0, "RewiresPerMinute"))
	case Botnet:
		checks = append(checks, needRate(), needAuthors(),
			forbid(e.Edits != 0, "Edits (botnet posts are byte-identical)"),
			forbid(e.Author != 0, "Author"),
			forbid(e.Amplitude != 0, "Amplitude"),
			forbid(e.PeriodMillis != 0, "PeriodMillis"),
			forbid(e.RewiresPerMinute != 0, "RewiresPerMinute"))
	case DiurnalWhiplash:
		checks = append(checks, needRate(),
			forbid(e.Amplitude <= 0 || e.Amplitude > 1 || math.IsNaN(e.Amplitude), "Amplitude (must be in (0,1])"),
			forbid(e.PeriodMillis <= 0, "PeriodMillis (must be positive)"),
			forbid(e.Authors != 0, "Authors"),
			forbid(e.Edits != 0, "Edits"),
			forbid(e.Author != 0, "Author"),
			forbid(e.RewiresPerMinute != 0, "RewiresPerMinute"))
	case GraphChurn:
		checks = append(checks,
			forbid(e.RewiresPerMinute <= 0 || math.IsInf(e.RewiresPerMinute, 0) || math.IsNaN(e.RewiresPerMinute),
				"RewiresPerMinute (must be positive and finite)"),
			forbid(e.PostsPerMinute != 0, "PostsPerMinute"),
			forbid(e.Authors != 0, "Authors"),
			forbid(e.Edits != 0, "Edits"),
			forbid(e.Author != 0, "Author"),
			forbid(e.Amplitude != 0, "Amplitude"),
			forbid(e.PeriodMillis != 0, "PeriodMillis"))
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParseWorkload decodes and validates one JSON workload spec. Decoding is
// strict: unknown fields, trailing data and schema violations are all
// errors. A nil error guarantees the returned workload round-trips through
// json.Marshal/ParseWorkload unchanged.
func ParseWorkload(data []byte) (*Workload, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w Workload
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("twittergen: workload spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("twittergen: workload spec: trailing data after the JSON object")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// ChurnEvent is one scheduled followee-set rewrite: at AtMillis (absolute
// stream time), author Author's followee list becomes Followees. The
// generator only schedules these; the scenario runner applies them through
// authorsim.MutableVectors.SetFollowees + Graph.WithUpdatedAuthor and swaps
// the refreshed graph into the engine at a safe point.
type ChurnEvent struct {
	AtMillis  int64
	Author    int32
	Followees []int32
}

// WorkloadStream is a generated adversarial stream: time-ordered posts, the
// index of the event each post belongs to (-1 for background traffic), and
// the time-ordered churn schedule.
type WorkloadStream struct {
	Posts   []*core.Post
	EventOf []int
	Churn   []ChurnEvent
}

// EventCounts tallies posts per event index (-1 = background).
func (ws *WorkloadStream) EventCounts() map[int]int {
	m := make(map[int]int)
	for _, e := range ws.EventOf {
		m[e]++
	}
	return m
}

// GenerateWorkload realizes a workload spec over a social graph. The sim
// oracle steers the background traffic's duplicate injection exactly as in
// GenerateStream; event posts get their shape from the spec alone. The RNG
// is derived from w.Seed, so the output is a pure function of (sg, vocab
// state, w) — a fresh Vocab per run (it draws from its own captured RNG) is
// what lets scenario reports be golden-tested.
func GenerateWorkload(sg *SocialGraph, sim SimilarityOracle, vocab *Vocab, w *Workload) (*WorkloadStream, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(w.Seed))
	numAuthors := len(sg.Followees)
	if numAuthors == 0 {
		return nil, fmt.Errorf("twittergen: workload %q: social graph has no authors", w.Name)
	}

	type slot struct {
		author int32
		time   int64
		event  int // -1 background
		seq    int // per-event emission order, for cascade head-first and stable text derivation
	}
	var slots []slot

	// Background layer: reuse the calibrated one-day generator at the
	// workload's start/duration, then relabel its posts as event -1. Running
	// it first pins its RNG consumption so adding events never perturbs the
	// background shape.
	var background *GeneratedStream
	if w.Background != nil {
		cfg := DefaultStreamConfig()
		cfg.PostsPerAuthorPerDay = w.Background.PostsPerAuthorPerDay
		cfg.DupProbability = w.Background.DupProbability
		cfg.StartMillis = w.StartMillis
		cfg.DurationMillis = w.DurationMillis
		gs, err := GenerateStream(rng, sg, sim, vocab, cfg)
		if err != nil {
			return nil, err
		}
		background = gs
	}

	var churn []ChurnEvent
	for ei := range w.Events {
		ev := &w.Events[ei]
		start := w.StartMillis + ev.AtMillis
		minutes := float64(ev.DurationMillis) / 60_000
		switch ev.Kind {
		case FlashCrowd, CelebrityCascade, Botnet:
			total := int(ev.PostsPerMinute * minutes)
			if total < 1 {
				total = 1
			}
			for i := 0; i < total; i++ {
				t := start + int64(rng.Float64()*float64(ev.DurationMillis))
				if ev.Kind == CelebrityCascade && i == 0 {
					t = start // the head's post opens the cascade
				}
				slots = append(slots, slot{time: t, event: ei, seq: i})
			}
		case DiurnalWhiplash:
			total := int(ev.PostsPerMinute * minutes)
			for i := 0; i < total; i++ {
				slots = append(slots, slot{
					time:  sampleWhiplashTime(rng, start, ev.DurationMillis, ev.Amplitude, ev.PeriodMillis),
					event: ei,
				})
			}
		case GraphChurn:
			n := int(ev.RewiresPerMinute * minutes)
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				a := int32(rng.Intn(numAuthors))
				churn = append(churn, ChurnEvent{
					AtMillis:  start + int64(rng.Float64()*float64(ev.DurationMillis)),
					Author:    a,
					Followees: mutateFollowees(rng, sg, a),
				})
			}
		}
	}

	// Event participant pools and seed texts, fixed per event.
	participants := make([][]int32, len(w.Events))
	seeds := make([]string, len(w.Events))
	heads := make([]int32, len(w.Events))
	for ei := range w.Events {
		ev := &w.Events[ei]
		switch ev.Kind {
		case FlashCrowd, CelebrityCascade, Botnet:
			k := ev.Authors
			if k > numAuthors {
				k = numAuthors
			}
			pool := make([]int32, k)
			for i, idx := range rng.Perm(numAuthors)[:k] {
				pool[i] = int32(idx)
			}
			participants[ei] = pool
			seeds[ei] = vocab.Sentence(10) + " " + shortURL(rng)
			if ev.Kind == CelebrityCascade {
				heads[ei] = ev.Author
				if heads[ei] < 0 {
					heads[ei] = 0 // the Zipf head: the most-followed celebrity
				}
				if int(heads[ei]) >= numAuthors {
					return nil, fmt.Errorf("twittergen: workload %q event %d: cascade head %d outside [0,%d)",
						w.Name, ei, heads[ei], numAuthors)
				}
			}
		}
	}

	// Assign authors and compose texts in slot order.
	for i := range slots {
		s := &slots[i]
		if s.event < 0 {
			continue
		}
		ev := &w.Events[s.event]
		pool := participants[s.event]
		switch ev.Kind {
		case FlashCrowd, Botnet, DiurnalWhiplash:
			if len(pool) > 0 {
				s.author = pool[rng.Intn(len(pool))]
			} else {
				s.author = int32(rng.Intn(numAuthors))
			}
		case CelebrityCascade:
			if s.seq == 0 {
				s.author = heads[s.event]
			} else {
				s.author = pool[rng.Intn(len(pool))]
				if s.author == heads[s.event] && len(pool) > 1 {
					s.author = pool[(rng.Intn(len(pool)-1)+1)%len(pool)]
				}
			}
		}
	}

	sort.SliceStable(slots, func(i, j int) bool {
		if slots[i].time != slots[j].time {
			return slots[i].time < slots[j].time
		}
		if slots[i].author != slots[j].author {
			return slots[i].author < slots[j].author
		}
		return slots[i].event < slots[j].event
	})
	sort.SliceStable(churn, func(i, j int) bool { return churn[i].AtMillis < churn[j].AtMillis })

	// Merge the background stream (already time-ordered) with the event
	// slots, composing event texts as we go.
	ws := &WorkloadStream{Churn: churn}
	bg := 0
	emit := func(author int32, t int64, text string, event int) {
		ws.Posts = append(ws.Posts, core.NewPost(uint64(len(ws.Posts)+1), author, t, text))
		ws.EventOf = append(ws.EventOf, event)
	}
	for _, s := range slots {
		for background != nil && bg < len(background.Posts) && background.Posts[bg].Time <= s.time {
			p := background.Posts[bg]
			emit(p.Author, p.Time, p.Text, -1)
			bg++
		}
		ev := &w.Events[s.event]
		var text string
		switch ev.Kind {
		case Botnet:
			text = seeds[s.event] // byte-identical: identical fingerprints
		case FlashCrowd:
			text = PerturbText(rng, seeds[s.event], participants[s.event][0], 1+rng.Intn(ev.Edits))
		case CelebrityCascade:
			if s.seq == 0 {
				text = seeds[s.event]
			} else {
				text = PerturbText(rng, seeds[s.event], heads[s.event], 1+rng.Intn(ev.Edits))
			}
		case DiurnalWhiplash:
			text = vocab.Sentence(8 + rng.Intn(8))
		}
		emit(s.author, s.time, text, s.event)
	}
	for background != nil && bg < len(background.Posts) {
		p := background.Posts[bg]
		emit(p.Author, p.Time, p.Text, -1)
		bg++
	}
	return ws, nil
}

// sampleWhiplashTime draws one arrival in [start, start+duration) under the
// sinusoidal intensity 1 + A·sin(2πt/P), by rejection sampling (mean weight
// is 1, so PostsPerMinute stays the mean rate).
func sampleWhiplashTime(rng *rand.Rand, start, duration int64, amplitude float64, period int64) int64 {
	maxW := 1 + amplitude
	for {
		off := int64(rng.Float64() * float64(duration))
		weight := 1 + amplitude*math.Sin(2*math.Pi*float64(off)/float64(period))
		if rng.Float64()*maxW <= weight {
			return start + off
		}
	}
}

// mutateFollowees derives a new followee list for author a: one third of
// rewrites shrink the list, one third grow it with random accounts, one
// third rewire (replace a block with random accounts). Targets come from the
// full account universe [0, NumAccounts), as real follows do. The result is
// always non-empty, and never aliases sg's slices.
func mutateFollowees(rng *rand.Rand, sg *SocialGraph, a int32) []int32 {
	cur := sg.Followees[a]
	out := make([]int32, len(cur))
	copy(out, cur)
	randAccount := func() int32 { return int32(rng.Intn(sg.NumAccounts)) }
	switch rng.Intn(3) {
	case 0: // shrink: drop up to half the follows
		if len(out) > 1 {
			drop := 1 + rng.Intn((len(out)+1)/2)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			out = out[:len(out)-drop]
		}
	case 1: // grow: add 1..8 random accounts
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			out = append(out, randAccount())
		}
	default: // rewire: replace up to half the follows with random accounts
		if len(out) > 0 {
			for i, n := 0, 1+rng.Intn((len(out)+1)/2); i < n; i++ {
				out[rng.Intn(len(out))] = randAccount()
			}
		} else {
			out = append(out, randAccount())
		}
	}
	if len(out) == 0 {
		out = append(out, randAccount())
	}
	return out
}
