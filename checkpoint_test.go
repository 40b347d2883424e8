package firehose

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// checkpointScenario is the shared fixture of the checkpoint tests: a wired
// graph, a realistic stream and subscriptions.
func checkpointScenario(t *testing.T) (*AuthorGraph, []Post, [][]AuthorID) {
	t.Helper()
	return generateScenario(t, 200, 404)
}

// TestDiversifierSnapshotEquivalence: the acceptance bar of the checkpoint
// subsystem at the single-user surface. For every algorithm: run a random
// prefix, snapshot, restore into a fresh identically-constructed
// diversifier, and require the suffix decision sequence to match the
// uninterrupted run.
func TestDiversifierSnapshotEquivalence(t *testing.T) {
	graph, posts, _ := checkpointScenario(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(11))
	for _, alg := range []Algorithm{UniBin, NeighborBin, CliqueBin} {
		t.Run(alg.String(), func(t *testing.T) {
			cont, err := NewDiversifier(alg, graph, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewDiversifier(alg, graph, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cut := 1 + rng.Intn(len(posts)-1)
			for _, p := range posts[:cut] {
				cont.Offer(p)
			}
			var buf bytes.Buffer
			if err := cont.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			for i, p := range posts[cut:] {
				if a, b := cont.Offer(p), restored.Offer(p); a != b {
					t.Fatalf("cut %d: decision diverged at suffix post %d: %v vs %v", cut, i, a, b)
				}
			}
			if a, b := cont.Stats(), restored.Stats(); a.Accepted != b.Accepted || a.Rejected != b.Rejected || a.Comparisons != b.Comparisons {
				t.Fatalf("stats diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// TestIndexedDiversifierSnapshotEquivalence extends the single-user bar to a
// UniBin diversifier under IndexOn at a strict λc, whose restore must rebuild
// the SimHash index over the restored window ring.
func TestIndexedDiversifierSnapshotEquivalence(t *testing.T) {
	graph, posts, _ := checkpointScenario(t)
	cfg := Config{LambdaC: 3, LambdaT: 30 * time.Minute, LambdaA: 0.7, Index: IndexOn}
	cont, err := NewDiversifier(UniBin, graph, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewDiversifier(UniBin, graph, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(posts) / 2
	for _, p := range posts[:cut] {
		cont.Offer(p)
	}
	var buf bytes.Buffer
	if err := cont.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, p := range posts[cut:] {
		if a, b := cont.Offer(p), restored.Offer(p); a != b {
			t.Fatalf("decision diverged at suffix post %d: %v vs %v", i, a, b)
		}
	}
	if a, b := cont.Stats(), restored.Stats(); a.Accepted != b.Accepted || a.Comparisons != b.Comparisons || a.Evictions != b.Evictions {
		t.Fatalf("stats diverged: %+v vs %+v", a, b)
	}
}

// TestSnapshotPortableAcrossIndexPolicy: Config.Index is deliberately
// excluded from the construction fingerprint — the policy changes lookup
// mechanics, not decisions, so a snapshot taken under one policy must
// restore into a service running another and continue the exact decision
// sequence.
func TestSnapshotPortableAcrossIndexPolicy(t *testing.T) {
	graph, posts, _ := checkpointScenario(t)
	cfgOff := Config{LambdaC: 6, LambdaT: 30 * time.Minute, LambdaA: 0.7, Index: IndexOff}
	cfgOn := cfgOff
	cfgOn.Index = IndexOn
	cont, err := NewDiversifier(UniBin, graph, nil, cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewDiversifier(UniBin, graph, nil, cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(posts) / 2
	for _, p := range posts[:cut] {
		cont.Offer(p)
	}
	var buf bytes.Buffer
	if err := cont.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore across index policies: %v", err)
	}
	for i, p := range posts[cut:] {
		if a, b := cont.Offer(p), restored.Offer(p); a != b {
			t.Fatalf("decision diverged at suffix post %d: scan=%v indexed=%v", i, a, b)
		}
	}
	// Comparisons legitimately differ (window entries visited vs bucket
	// entries probed); the decision counters may not.
	if a, b := cont.Stats(), restored.Stats(); a.Accepted != b.Accepted || a.Rejected != b.Rejected {
		t.Fatalf("decision counters diverged: %+v vs %+v", a, b)
	}
}

// TestDiversifierSnapshotPreservesAutoIDs: the auto-id watermark survives a
// snapshot, so ids assigned after restore continue the sequence instead of
// colliding with pre-snapshot ids.
func TestDiversifierSnapshotPreservesAutoIDs(t *testing.T) {
	graph, posts, _ := checkpointScenario(t)
	d, err := NewDiversifier(UniBin, graph, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts[:50] {
		p.ID = 0 // force auto-assignment
		d.Offer(p)
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewDiversifier(UniBin, graph, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	p := posts[50]
	p.ID = 0
	restored.Offer(p)
	if restored.nextID != 51 {
		t.Fatalf("auto-id watermark after restore = %d, want 51", restored.nextID)
	}
}

// TestMultiUserServiceSnapshotEquivalence covers the M_*, S_* and per-user
// custom variants through the public surface.
func TestMultiUserServiceSnapshotEquivalence(t *testing.T) {
	graph, posts, subs := checkpointScenario(t)
	cfg := DefaultConfig()
	userCfgs := make([]Config, len(subs))
	for i := range userCfgs {
		userCfgs[i] = Config{LambdaC: 12 + i%8, LambdaT: time.Duration(10+i%5) * time.Minute, LambdaA: 0.7}
	}
	variants := map[string]ServiceOptions{}
	for _, alg := range []Algorithm{UniBin, NeighborBin, CliqueBin} {
		variants["S_"+alg.String()] = ServiceOptions{Algorithm: alg, Config: cfg}
		variants["M_"+alg.String()] = ServiceOptions{Algorithm: alg, Config: cfg, Independent: true}
	}
	variants["Custom"] = ServiceOptions{UserConfigs: userCfgs}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			cont, err := NewService(graph, subs, opts)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewService(graph, subs, opts)
			if err != nil {
				t.Fatal(err)
			}
			cut := len(posts) / 3
			for _, p := range posts[:cut] {
				cont.Offer(p)
			}
			var buf bytes.Buffer
			if err := cont.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			for i, p := range posts[cut:] {
				if a, b := cont.Offer(p), restored.Offer(p); !slices.Equal(a, b) {
					t.Fatalf("delivery diverged at suffix post %d: %v vs %v", i, a, b)
				}
			}
		})
	}
}

// TestParallelServiceSnapshotEquivalence: the ISSUE's bar at the parallel
// surface — 1 and 4 workers, snapshot mid-stream, identical suffix.
func TestParallelServiceSnapshotEquivalence(t *testing.T) {
	graph, posts, subs := checkpointScenario(t)
	cfg := DefaultConfig()
	for _, workers := range []int{1, 4} {
		for _, alg := range []Algorithm{UniBin, NeighborBin, CliqueBin} {
			t.Run(alg.String(), func(t *testing.T) {
				opts := ParallelServiceOptions{Algorithm: alg, Config: cfg, Workers: workers}
				cont, err := NewParallel(graph, subs, opts)
				if err != nil {
					t.Fatal(err)
				}
				restored, err := NewParallel(graph, subs, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer cont.Close()
				defer restored.Close()
				cut := len(posts) / 2
				for _, p := range posts[:cut] {
					if _, err := cont.Offer(p); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := cont.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatal(err)
				}
				for i, p := range posts[cut:] {
					a, err := cont.Offer(p)
					if err != nil {
						t.Fatal(err)
					}
					b, err := restored.Offer(p)
					if err != nil {
						t.Fatal(err)
					}
					au, bu := a.Users(), b.Users()
					slices.Sort(au)
					slices.Sort(bu)
					if !slices.Equal(au, bu) {
						t.Fatalf("workers=%d: delivery diverged at suffix post %d: %v vs %v", workers, i, au, bu)
					}
				}
			})
		}
	}
}

// TestRestoreRejectsMismatches: every way a snapshot can disagree with the
// restoring service must produce a descriptive error.
func TestRestoreRejectsMismatches(t *testing.T) {
	graph, posts, subs := checkpointScenario(t)
	cfg := DefaultConfig()
	d, err := NewDiversifier(UniBin, graph, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts[:40] {
		d.Offer(p)
	}
	var dsnap bytes.Buffer
	if err := d.Snapshot(&dsnap); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong service kind", func(t *testing.T) {
		svc, err := NewService(graph, subs, ServiceOptions{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		err = svc.Restore(bytes.NewReader(dsnap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "firehose.Diversifier") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("wrong algorithm", func(t *testing.T) {
		d2, err := NewDiversifier(NeighborBin, graph, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = d2.Restore(bytes.NewReader(dsnap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "algorithm") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("different thresholds", func(t *testing.T) {
		cfg2 := cfg
		cfg2.LambdaC = 5
		d2, err := NewDiversifier(UniBin, graph, nil, cfg2)
		if err != nil {
			t.Fatal(err)
		}
		err = d2.Restore(bytes.NewReader(dsnap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("different subscriptions", func(t *testing.T) {
		svc1, err := NewService(graph, subs, ServiceOptions{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := svc1.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		subs2 := slices.Clone(subs)
		subs2[0] = []AuthorID{0, 1}
		svc2, err := NewService(graph, subs2, ServiceOptions{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		err = svc2.Restore(bytes.NewReader(snap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("different worker count", func(t *testing.T) {
		p1, err := NewParallel(graph, subs, ParallelServiceOptions{Config: cfg, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer p1.Close()
		var snap bytes.Buffer
		if err := p1.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		p2, err := NewParallel(graph, subs, ParallelServiceOptions{Config: cfg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Close()
		err = p2.Restore(bytes.NewReader(snap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "workers") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("indexed diversifier cross-algorithm", func(t *testing.T) {
		// Snapshots restore across index policies of one algorithm, but a
		// scan UniBin snapshot must still be rejected by an indexed
		// diversifier of another algorithm — by the algorithm check, not
		// restored into its index-backed bins.
		cfgIdx := Config{LambdaC: 2, LambdaT: 30 * time.Minute, LambdaA: 0.7, Index: IndexOn}
		di, err := NewDiversifier(NeighborBin, graph, nil, cfgIdx)
		if err != nil {
			t.Fatal(err)
		}
		err = di.Restore(bytes.NewReader(dsnap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "algorithm") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncation", func(t *testing.T) {
		raw := dsnap.Bytes()
		for _, n := range []int{0, 1, 4, len(raw) / 2, len(raw) - 1} {
			d2, err := NewDiversifier(UniBin, graph, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := d2.Restore(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("restore of %d-byte prefix succeeded", n)
			}
		}
	})
}

// TestTopologyFingerprint: ServiceOptions.Topology stamps a service's place
// in a horizontally sharded deployment into its snapshot fingerprint. A
// snapshot restores only into a service holding the exact same placement —
// shard index, shard count and assignment digest — and every refusal names
// shard_mismatch. Nil normalizes to the single-node (0, 1, 0) so plain and
// explicitly-single-node services interchange snapshots.
func TestTopologyFingerprint(t *testing.T) {
	graph, posts, subs := checkpointScenario(t)
	cfg := DefaultConfig()
	topo := &Topology{Shard: 0, Shards: 2, Digest: 0x5eedf00d}

	sharded, err := NewService(graph, subs, ServiceOptions{Config: cfg, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(posts) / 2
	for _, p := range posts[:cut] {
		sharded.Offer(p)
	}
	var snap bytes.Buffer
	if err := sharded.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	t.Run("same placement restores and continues", func(t *testing.T) {
		twin, err := NewService(graph, subs, ServiceOptions{Config: cfg, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		for i, p := range posts[cut:] {
			if a, b := sharded.Offer(p), twin.Offer(p); !slices.Equal(a, b) {
				t.Fatalf("decision diverged at suffix post %d: %v vs %v", i, a, b)
			}
		}
	})
	refuses := func(name string, opts ServiceOptions) {
		t.Run(name, func(t *testing.T) {
			svc, err := NewService(graph, subs, opts)
			if err != nil {
				t.Fatal(err)
			}
			err = svc.Restore(bytes.NewReader(snap.Bytes()))
			if err == nil || !strings.Contains(err.Error(), "shard_mismatch") {
				t.Fatalf("err = %v, want a shard_mismatch refusal", err)
			}
		})
	}
	refuses("non-sharded service refuses", ServiceOptions{Config: cfg})
	refuses("different shard index refuses", ServiceOptions{Config: cfg, Topology: &Topology{Shard: 1, Shards: 2, Digest: topo.Digest}})
	refuses("different shard count refuses", ServiceOptions{Config: cfg, Topology: &Topology{Shard: 0, Shards: 4, Digest: topo.Digest}})
	refuses("different digest refuses", ServiceOptions{Config: cfg, Topology: &Topology{Shard: 0, Shards: 2, Digest: 0xbadc0ffee}})

	t.Run("nil normalizes to single node", func(t *testing.T) {
		plain, err := NewService(graph, subs, ServiceOptions{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range posts[:cut] {
			plain.Offer(p)
		}
		var psnap bytes.Buffer
		if err := plain.Snapshot(&psnap); err != nil {
			t.Fatal(err)
		}
		explicit, err := NewService(graph, subs, ServiceOptions{Config: cfg, Topology: &Topology{Shard: 0, Shards: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := explicit.Restore(bytes.NewReader(psnap.Bytes())); err != nil {
			t.Fatalf("an explicit 0/1 topology rejected a plain snapshot: %v", err)
		}
	})
	t.Run("invalid placements rejected at construction", func(t *testing.T) {
		for _, bad := range []*Topology{
			{Shard: 0, Shards: 0},
			{Shard: 2, Shards: 2},
			{Shard: -1, Shards: 2},
		} {
			if _, err := NewService(graph, subs, ServiceOptions{Config: cfg, Topology: bad}); err == nil || !strings.Contains(err.Error(), "Topology") {
				t.Fatalf("NewService(Topology %+v): err = %v", bad, err)
			}
			if _, err := NewParallel(graph, subs, ParallelServiceOptions{Config: cfg, Workers: 2, Topology: bad}); err == nil || !strings.Contains(err.Error(), "Topology") {
				t.Fatalf("NewParallel(Topology %+v): err = %v", bad, err)
			}
		}
	})
	t.Run("parallel service carries topology", func(t *testing.T) {
		p1, err := NewParallel(graph, subs, ParallelServiceOptions{Config: cfg, Workers: 2, Topology: topo})
		if err != nil {
			t.Fatal(err)
		}
		defer p1.Close()
		var psnap bytes.Buffer
		if err := p1.Snapshot(&psnap); err != nil {
			t.Fatal(err)
		}
		p2, err := NewParallel(graph, subs, ParallelServiceOptions{Config: cfg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Close()
		err = p2.Restore(bytes.NewReader(psnap.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "shard_mismatch") {
			t.Fatalf("err = %v, want a shard_mismatch refusal", err)
		}
	})
}

// TestServiceOptionsValidation: the canonical constructor rejects ambiguous
// or inconsistent option combinations.
func TestServiceOptionsValidation(t *testing.T) {
	graph, _, subs := checkpointScenario(t)
	cfg := DefaultConfig()
	if _, err := NewService(graph, subs, ServiceOptions{Config: cfg, UserConfigs: []Config{cfg}}); err == nil {
		t.Fatal("Config+UserConfigs accepted")
	}
	if _, err := NewService(graph, subs, ServiceOptions{UserConfigs: []Config{cfg}}); err == nil {
		t.Fatal("UserConfigs length mismatch accepted")
	}
	if _, err := NewService(nil, subs, ServiceOptions{Config: cfg}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewService(graph, subs, ServiceOptions{}); err == nil {
		t.Fatal("zero Config accepted — thresholds must be explicit")
	}
}
