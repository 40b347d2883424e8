package lint_test

import (
	"go/token"
	"os"
	"strings"
	"testing"

	"firehose/internal/lint"
	"firehose/internal/lint/loader"
)

// TestSuiteCleanOnRepo is the live no-false-positive guarantee: the full
// firehose-lint suite must be silent over the repository's own tree (the
// same invocation `make lint` gates on).
func TestSuiteCleanOnRepo(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, "../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	findings, err := lint.Run(fset, pkgs, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on the real tree: %s", f)
	}
}

// TestIgnoreDirective checks both halves of the suppression contract: a
// reasoned //lint:ignore silences the named analyzer — exercised for the
// dataflow analyzer (lockorder) and for guardcheck in the testdata module —
// and a reason-less one suppresses nothing while being reported itself.
// Exactly the two unsuppressed findings must survive.
func TestIgnoreDirective(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, "testdata", "./...")
	if err != nil {
		t.Fatalf("loading testdata: %v", err)
	}
	findings, err := lint.Run(fset, pkgs, lint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(findings), format(findings))
	}
	var sawBare, sawUnsuppressed bool
	for _, f := range findings {
		switch {
		case f.Analyzer == "lint" && strings.Contains(f.Message, "without a reason"):
			sawBare = true
		case f.Analyzer == "guardcheck" && strings.Contains(f.Message, "b.n is accessed without holding"):
			sawUnsuppressed = true
		}
	}
	if !sawBare {
		t.Errorf("missing the reason-less directive finding:\n%s", format(findings))
	}
	if !sawUnsuppressed {
		t.Errorf("the reason-less directive must not suppress the guardcheck finding:\n%s", format(findings))
	}
}

// TestRosterPinned keeps the committed analyzer roster in sync with the
// suite: CI diffs `firehose-lint -list` against docs/lint-roster.txt, and
// this test fails first (with a better message) when an analyzer is added or
// removed without updating the roster.
func TestRosterPinned(t *testing.T) {
	data, err := os.ReadFile("../../docs/lint-roster.txt")
	if err != nil {
		t.Fatalf("reading roster: %v", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	var got []string
	for _, a := range lint.Suite() {
		got = append(got, a.Name)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("suite roster drifted from docs/lint-roster.txt:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestLockGraphGolden regenerates the whole-program lock acquired-before
// graph and compares it to the committed artifact, so every change to the
// locking structure shows up as a reviewable docs/lockgraph.dot diff
// (regenerate with `make lockgraph`).
func TestLockGraphGolden(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, "../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	dot, err := lint.LockGraph(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../docs/lockgraph.dot")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if dot != string(golden) {
		t.Errorf("lock graph drifted from docs/lockgraph.dot; regenerate with `make lockgraph`\ngot:\n%s\ngolden:\n%s", dot, golden)
	}
}

func format(fs []lint.Finding) string {
	lines := make([]string, len(fs))
	for i, f := range fs {
		lines[i] = "  " + f.String()
	}
	return strings.Join(lines, "\n")
}
