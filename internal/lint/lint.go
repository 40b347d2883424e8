// Package lint assembles the firehose-lint analyzer suite and runs it over
// loaded packages, honoring `//lint:ignore` suppression directives.
//
// The suite mechanically enforces the invariants that keep the concurrent
// engines race-safe and the paper's cost metrics trustworthy; see the
// analyzer package docs and DESIGN.md ("Static analysis") for the full
// contract of each check.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"firehose/internal/lint/analysis"
	"firehose/internal/lint/analyzers/errdrop"
	"firehose/internal/lint/analyzers/guardcheck"
	"firehose/internal/lint/analyzers/lockorder"
	"firehose/internal/lint/analyzers/nowcheck"
	"firehose/internal/lint/analyzers/snapshotcheck"
	"firehose/internal/lint/loader"
)

// Suite returns the full firehose-lint analyzer suite in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		guardcheck.Analyzer,
		nowcheck.Analyzer,
		snapshotcheck.Analyzer,
		errdrop.Analyzer,
		lockorder.Analyzer,
	}
}

// LockGraph runs only the lockorder analyzer over pkgs (discarding
// diagnostics) and returns the accumulated acquired-before graph in dot
// form. The graph is process-global in the lockorder package, so the
// accumulator is reset first: the dump reflects exactly the packages given.
func LockGraph(fset *token.FileSet, pkgs []*loader.Package) (string, error) {
	lockorder.ResetGraph()
	if _, err := Run(fset, pkgs, []*analysis.Analyzer{lockorder.Analyzer}); err != nil {
		return "", err
	}
	return lockorder.GraphDot(), nil
}

// Finding is one unsuppressed diagnostic, resolved to a file position.
type Finding struct {
	// Analyzer names the check that fired.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message states the violation.
	Message string
}

// String formats the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// ignoreRE matches a suppression directive: `//lint:ignore <name>[,<name>] <reason>`.
// The reason is mandatory — an unexplained suppression is itself reported.
var ignoreRE = regexp.MustCompile(`^lint:ignore\s+([\w,]+)(?:\s+(.*))?$`)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool
	hasReason bool
	pos       token.Position
}

// Run applies the analyzers to every package and returns the surviving
// findings sorted by position. A diagnostic is suppressed when a
// `//lint:ignore <analyzer> <reason>` directive sits on the same line or the
// line above it; a directive without a reason does not suppress and is
// reported itself, so every suppression in the tree carries its
// justification.
func Run(fset *token.FileSet, pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		ignores := collectIgnores(fset, pkg)
		for _, d := range ignores {
			if !d.hasReason {
				findings = append(findings, Finding{
					Analyzer: "lint",
					Pos:      d.pos,
					Message:  "//lint:ignore directive without a reason; write `//lint:ignore <analyzer> <why this is safe>`",
				})
			}
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report: func(diag analysis.Diagnostic) {
					pos := fset.Position(diag.Pos)
					if suppressed(ignores, a.Name, pos) {
						return
					}
					findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: diag.Message})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

func collectIgnores(fset *token.FileSet, pkg *loader.Package) []*ignoreDirective {
	var out []*ignoreDirective
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				m := ignoreRE.FindStringSubmatch(strings.TrimSpace(text))
				if m == nil {
					continue
				}
				names := make(map[string]bool)
				for _, n := range strings.Split(m[1], ",") {
					names[n] = true
				}
				out = append(out, &ignoreDirective{
					analyzers: names,
					hasReason: strings.TrimSpace(m[2]) != "",
					pos:       fset.Position(c.Pos()),
				})
			}
		}
	}
	return out
}

func suppressed(ignores []*ignoreDirective, analyzer string, pos token.Position) bool {
	for _, d := range ignores {
		if !d.hasReason || !d.analyzers[analyzer] || d.pos.Filename != pos.Filename {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			return true
		}
	}
	return false
}
