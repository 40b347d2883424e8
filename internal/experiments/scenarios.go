package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"firehose/internal/authorsim"
	"firehose/internal/core"
	"firehose/internal/metrics"
	"firehose/internal/stream"
	"firehose/internal/twittergen"
)

// This file registers the adversarial workloads of internal/twittergen as
// named, runnable scenarios: each realizes its Workload spec over a seeded
// social graph, drives the sequential multi-user engine through it twice —
// once with the plain S_UniBin solver, once wrapped in the adaptive per-user
// threshold controller — and reports before/after delivery-rate metrics.
// Graph-churn events are applied mid-stream through the engine's Swap +
// SetGraph, the maintenance loop the paper sketches in Section 3. The
// delivery tables are pure functions of the seed and are golden-tested;
// latency tables are timing and deliberately are not.

// ScenarioSpec is one named adversarial scenario: a workload builder
// parameterized by the author-population size so the same shape runs at
// smoke and full scale.
type ScenarioSpec struct {
	// Name is the CLI and golden-file identifier.
	Name string
	// Description is a one-line summary of the hostile shape.
	Description string
	// Workload builds the spec for a population of the given size.
	Workload func(authors int, seed int64) *twittergen.Workload
}

// scenarioMinutes is the common workload length. An hour of stream time keeps
// every event's window interactions (λt = 30min default) non-trivial while a
// smoke run stays in CI budget.
const scenarioMillis = 60 * 60 * 1000

// Scenarios lists every registered scenario in canonical order, one per
// adversarial EventKind of the workload DSL.
func Scenarios() []ScenarioSpec {
	return []ScenarioSpec{
		{
			Name:        "flash-crowd",
			Description: "breaking event: near-duplicate burst from many distinct authors",
			Workload: func(authors int, seed int64) *twittergen.Workload {
				return &twittergen.Workload{
					Name: "flash-crowd", Seed: seed,
					DurationMillis: scenarioMillis,
					Background:     &twittergen.BackgroundSpec{PostsPerAuthorPerDay: 24, DupProbability: 0.05},
					Events: []twittergen.Event{{
						Kind:           twittergen.FlashCrowd,
						AtMillis:       10 * 60 * 1000,
						DurationMillis: 10 * 60 * 1000,
						PostsPerMinute: 120,
						Authors:        max(20, authors/20),
						Edits:          3,
					}},
				}
			},
		},
		{
			Name:        "celebrity-cascade",
			Description: "Zipf-head author posts once, a perturbed retweet wave follows",
			Workload: func(authors int, seed int64) *twittergen.Workload {
				return &twittergen.Workload{
					Name: "celebrity-cascade", Seed: seed,
					DurationMillis: scenarioMillis,
					Background:     &twittergen.BackgroundSpec{PostsPerAuthorPerDay: 24, DupProbability: 0.05},
					Events: []twittergen.Event{{
						Kind:           twittergen.CelebrityCascade,
						AtMillis:       10 * 60 * 1000,
						DurationMillis: 15 * 60 * 1000,
						PostsPerMinute: 90,
						Authors:        max(15, authors/15),
						Author:         -1,
						Edits:          2,
					}},
				}
			},
		},
		{
			Name:        "botnet",
			Description: "coordinated campaign: byte-identical text from disjoint authors",
			Workload: func(authors int, seed int64) *twittergen.Workload {
				return &twittergen.Workload{
					Name: "botnet", Seed: seed,
					DurationMillis: scenarioMillis,
					Background:     &twittergen.BackgroundSpec{PostsPerAuthorPerDay: 24, DupProbability: 0.05},
					Events: []twittergen.Event{{
						Kind:           twittergen.Botnet,
						AtMillis:       5 * 60 * 1000,
						DurationMillis: 20 * 60 * 1000,
						PostsPerMinute: 60,
						Authors:        max(10, authors/30),
					}},
				}
			},
		},
		{
			Name:        "diurnal-whiplash",
			Description: "sinusoidal rate swings: the λt window fills and drains violently",
			Workload: func(authors int, seed int64) *twittergen.Workload {
				return &twittergen.Workload{
					Name: "diurnal-whiplash", Seed: seed,
					DurationMillis: scenarioMillis,
					Background:     &twittergen.BackgroundSpec{PostsPerAuthorPerDay: 24, DupProbability: 0.05},
					Events: []twittergen.Event{{
						Kind:           twittergen.DiurnalWhiplash,
						AtMillis:       5 * 60 * 1000,
						DurationMillis: 50 * 60 * 1000,
						PostsPerMinute: 40,
						Amplitude:      0.9,
						PeriodMillis:   10 * 60 * 1000,
					}},
				}
			},
		},
		{
			Name:        "graph-churn",
			Description: "followee rewrites mid-stream while a botnet stresses the stale edges",
			Workload: func(authors int, seed int64) *twittergen.Workload {
				return &twittergen.Workload{
					Name: "graph-churn", Seed: seed,
					DurationMillis: scenarioMillis,
					Background:     &twittergen.BackgroundSpec{PostsPerAuthorPerDay: 24, DupProbability: 0.05},
					Events: []twittergen.Event{
						{
							Kind:             twittergen.GraphChurn,
							AtMillis:         5 * 60 * 1000,
							DurationMillis:   40 * 60 * 1000,
							RewiresPerMinute: 30,
						},
						{
							Kind:           twittergen.Botnet,
							AtMillis:       10 * 60 * 1000,
							DurationMillis: 20 * 60 * 1000,
							PostsPerMinute: 45,
							Authors:        max(10, authors/30),
						},
					},
				}
			},
		},
	}
}

// ScenarioByName finds a registered scenario.
func ScenarioByName(name string) (ScenarioSpec, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return ScenarioSpec{}, false
}

// ScenarioConfig sizes a scenario run.
type ScenarioConfig struct {
	// Authors is the population size; the workload's event sizes derive from
	// it.
	Authors int
	// Seed drives the social graph, the workload realization and nothing
	// else; equal configs produce byte-equal delivery tables.
	Seed int64
	// Smoke labels the table title so smoke goldens cannot be confused with
	// full-scale output.
	Smoke bool
}

// SmokeScenarioConfig is the reduced scale used by `make scenarios SMOKE=1`
// and the golden tests.
func SmokeScenarioConfig() ScenarioConfig {
	return ScenarioConfig{Authors: 120, Seed: 20160315, Smoke: true}
}

// FullScenarioConfig is the default CLI scale.
func FullScenarioConfig() ScenarioConfig { return ScenarioConfig{Authors: 600, Seed: 20160315} }

// scenarioPolicy is the controller configuration every scenario runs under:
// a 5-posts-per-minute per-user budget with headroom to widen λc to 28 bits
// and λt to 2 hours.
func scenarioPolicy() core.AdaptivePolicy {
	return core.AdaptivePolicy{
		BudgetPosts:  5,
		WindowMillis: 60 * 1000,
		MaxLambdaC:   28,
		MaxLambdaT:   2 * 60 * 60 * 1000,
		StepLambdaC:  2,
		StepLambdaT:  15 * 60 * 1000,
	}
}

// ScenarioRun is the measured outcome of one engine pass over the workload.
type ScenarioRun struct {
	// Deliveries is the total timeline-append count (one post delivered to k
	// users counts k).
	Deliveries uint64
	// MaxUserDeliveries is the largest per-user total.
	MaxUserDeliveries int
	// PeakUserWindow is the largest delivery count any user received in any
	// budget window.
	PeakUserWindow int
	// OverBudgetWindows counts (user, window) pairs whose deliveries exceed
	// the budget.
	OverBudgetWindows int
	// Suppressed is the controller's withheld-delivery count (0 for the
	// baseline run).
	Suppressed uint64
	// Counters is the engine's cost-counter snapshot (its decision latency is
	// timing and is reported by LatencyTable only).
	Counters metrics.Counters
}

// ScenarioResult is one scenario's before/after comparison.
type ScenarioResult struct {
	Spec     ScenarioSpec
	Cfg      ScenarioConfig
	Workload *twittergen.Workload
	// Posts is the realized stream length; EventPosts[i] counts event i's
	// posts and EventPosts[-1] the background's.
	Posts      int
	EventPosts map[int]int
	// ChurnApplied counts followee rewrites folded into the live graph.
	ChurnApplied int
	// Baseline is the plain S_UniBin pass, Adaptive the controller-wrapped
	// pass over the identical stream and churn schedule.
	Baseline, Adaptive ScenarioRun
}

// RunScenario realizes the scenario's workload and measures both engine
// passes.
func RunScenario(spec ScenarioSpec, cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Authors <= 0 {
		return nil, fmt.Errorf("experiments: scenario %s: Authors must be positive", spec.Name)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	social, err := twittergen.GenerateGraph(rng, twittergen.DefaultGraphConfig(cfg.Authors))
	if err != nil {
		return nil, err
	}
	g := authorsim.BuildGraph(authorsim.NewVectors(social.Followees), DefaultLambdaA)
	vocab := twittergen.NewVocab(rand.New(rand.NewSource(cfg.Seed+1)), 4000)
	w := spec.Workload(cfg.Authors, cfg.Seed+2)
	ws, err := twittergen.GenerateWorkload(social, g, vocab, w)
	if err != nil {
		return nil, err
	}
	subs := social.Subscriptions()
	th := core.Thresholds{LambdaC: DefaultLambdaC, LambdaT: DefaultLambdaTMillis, LambdaA: DefaultLambdaA}
	pol := scenarioPolicy()

	res := &ScenarioResult{
		Spec: spec, Cfg: cfg, Workload: w,
		Posts:      len(ws.Posts),
		EventPosts: ws.EventCounts(),
	}

	mkBaseline := func() (core.MultiDiversifier, error) {
		return core.NewSharedMultiUser(core.AlgUniBin, g, subs, th)
	}
	res.Baseline, res.ChurnApplied, err = runScenarioPass(social, ws, w, pol, mkBaseline)
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario %s baseline: %w", spec.Name, err)
	}
	res.Adaptive, _, err = runScenarioPass(social, ws, w, pol, func() (core.MultiDiversifier, error) {
		inner, err := mkBaseline()
		if err != nil {
			return nil, err
		}
		return core.NewAdaptiveMultiUser(inner, g, th, pol)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario %s adaptive: %w", spec.Name, err)
	}
	return res, nil
}

// graphRefresher is the churn hook shared by the plain and adaptive solvers.
type graphRefresher interface {
	SetGraph(*authorsim.Graph) error
}

// runScenarioPass drives one engine over the workload stream, folding each
// scheduled churn event into a refreshed author graph (MutableVectors +
// WithUpdatedAuthor) and swapping it into the engine at the safe point before
// the first post at or after the event time.
func runScenarioPass(social *twittergen.SocialGraph, ws *twittergen.WorkloadStream, w *twittergen.Workload,
	pol core.AdaptivePolicy, mk func() (core.MultiDiversifier, error)) (ScenarioRun, int, error) {
	md, err := mk()
	if err != nil {
		return ScenarioRun{}, 0, err
	}
	eng := stream.NewMultiEngine(md)
	defer eng.Close()

	// Each pass rebuilds its own mutable vectors and graph chain so both
	// passes see the identical graph sequence.
	mv := authorsim.NewMutableVectors(authorsim.NewVectors(social.Followees))
	liveGraph := authorsim.BuildGraph(mv.Vectors(), DefaultLambdaA)
	churned := 0
	applyChurn := func(ev twittergen.ChurnEvent) error {
		if err := mv.SetFollowees(ev.Author, ev.Followees); err != nil {
			return err
		}
		pairs, err := mv.SimilaritiesOf(ev.Author, 1-DefaultLambdaA)
		if err != nil {
			return err
		}
		g2, err := liveGraph.WithUpdatedAuthor(ev.Author, authorsim.NeighborsFromPairs(ev.Author, pairs))
		if err != nil {
			return err
		}
		var swapErr error
		if err := eng.Swap(func(cur core.MultiDiversifier) core.MultiDiversifier {
			swapErr = cur.(graphRefresher).SetGraph(g2)
			return cur
		}); err != nil {
			return err
		}
		if swapErr != nil {
			return swapErr
		}
		liveGraph = g2
		churned++
		return nil
	}

	type userWindow struct {
		user int32
		win  int64
	}
	perUser := make(map[int32]int)
	perWindow := make(map[userWindow]int)
	next := 0 // next pending churn event
	var run ScenarioRun
	for _, p := range ws.Posts {
		for next < len(ws.Churn) && ws.Churn[next].AtMillis <= p.Time {
			if err := applyChurn(ws.Churn[next]); err != nil {
				return ScenarioRun{}, churned, err
			}
			next++
		}
		users, err := eng.Offer(p)
		if err != nil {
			return ScenarioRun{}, churned, err
		}
		run.Deliveries += uint64(len(users))
		win := (p.Time - w.StartMillis) / pol.WindowMillis
		for _, u := range users {
			perUser[u]++
			perWindow[userWindow{u, win}]++
		}
	}
	for next < len(ws.Churn) {
		if err := applyChurn(ws.Churn[next]); err != nil {
			return ScenarioRun{}, churned, err
		}
		next++
	}
	for _, n := range perUser {
		run.MaxUserDeliveries = max(run.MaxUserDeliveries, n)
	}
	for _, n := range perWindow {
		run.PeakUserWindow = max(run.PeakUserWindow, n)
		if n > pol.BudgetPosts {
			run.OverBudgetWindows++
		}
	}
	if a, ok := md.(*core.AdaptiveMultiUser); ok {
		run.Suppressed = a.Suppressed()
	}
	run.Counters = eng.Counters()
	return run, churned, nil
}

// scaleLabel distinguishes smoke goldens from full-scale output.
func (r *ScenarioResult) scaleLabel() string {
	if r.Cfg.Smoke {
		return "smoke"
	}
	return "full"
}

// Table renders the deterministic before/after delivery report — everything
// in it is a pure function of the scenario seed, which is what the golden
// tests pin.
func (r *ScenarioResult) Table() *Table {
	pol := scenarioPolicy()
	b, a := r.Baseline, r.Adaptive
	t := &Table{
		Title:   fmt.Sprintf("Scenario: %s (%s, %d authors, seed %d)", r.Spec.Name, r.scaleLabel(), r.Cfg.Authors, r.Cfg.Seed),
		Columns: []string{"metric", "baseline S_UniBin", "adaptive"},
		Rows: [][]string{
			{"deliveries (timeline appends)", fmtInt(b.Deliveries), fmtInt(a.Deliveries)},
			{"max deliveries to one user", fmtInt(uint64(b.MaxUserDeliveries)), fmtInt(uint64(a.MaxUserDeliveries))},
			{"peak user-window deliveries", fmtInt(uint64(b.PeakUserWindow)), fmtInt(uint64(a.PeakUserWindow))},
			{"user-windows over budget", fmtInt(uint64(b.OverBudgetWindows)), fmtInt(uint64(a.OverBudgetWindows))},
			{"suppressed by controller", "-", fmtInt(a.Suppressed)},
		},
	}
	t.Notes = append(t.Notes, r.Spec.Description)
	t.Notes = append(t.Notes, fmt.Sprintf("stream: %d posts over %s (%d background)",
		r.Posts, fmtMillisAsMinutes(r.Workload.DurationMillis), r.EventPosts[-1]))
	// Per-event post counts in schedule order; churn events emit rewires, not
	// posts.
	for i, ev := range r.Workload.Events {
		if ev.Kind == twittergen.GraphChurn {
			t.Notes = append(t.Notes, fmt.Sprintf("event %d %s: %d followee rewrites applied via engine Swap", i, ev.Kind, r.ChurnApplied))
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf("event %d %s: %d posts", i, ev.Kind, r.EventPosts[i]))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("budget: %d posts per user per %s; caps λc %d bits, λt %s; steps +%d bits, +%s",
		pol.BudgetPosts, fmtMillisAsMinutes(pol.WindowMillis), pol.MaxLambdaC,
		fmtMillisAsMinutes(pol.MaxLambdaT), pol.StepLambdaC, fmtMillisAsMinutes(pol.StepLambdaT)))
	return t
}

// LatencyTable renders the per-pass decision-latency summaries. Timing is not
// deterministic, so this table is CLI output only — never golden-tested.
func (r *ScenarioResult) LatencyTable() *Table {
	row := func(name string, run ScenarioRun) []string {
		d := run.Counters.Decisions
		return []string{
			name,
			fmtInt(d.Count),
			fmtDur(d.Mean()),
			fmtDur(d.Quantile(0.50)),
			fmtDur(d.Quantile(0.95)),
			fmtDur(d.Quantile(0.99)),
		}
	}
	return &Table{
		Title:   fmt.Sprintf("Scenario: %s — decision latency", r.Spec.Name),
		Columns: []string{"engine", "decisions", "mean", "p50", "p95", "p99"},
		Rows: [][]string{
			row("baseline S_UniBin", r.Baseline),
			row("adaptive", r.Adaptive),
		},
	}
}

// RunScenariosNamed resolves "all" or a comma-free scenario name and runs the
// selection in registry order.
func RunScenariosNamed(name string, cfg ScenarioConfig) ([]*ScenarioResult, error) {
	var specs []ScenarioSpec
	if name == "all" {
		specs = Scenarios()
	} else {
		spec, ok := ScenarioByName(name)
		if !ok {
			names := make([]string, 0, len(Scenarios()))
			for _, s := range Scenarios() {
				names = append(names, s.Name)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("experiments: unknown scenario %q (have %v and \"all\")", name, names)
		}
		specs = []ScenarioSpec{spec}
	}
	out := make([]*ScenarioResult, 0, len(specs))
	for _, spec := range specs {
		r, err := RunScenario(spec, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
