// Package nowcheck forbids raw wall-clock reads — time.Now and time.Since —
// in decision-path packages. Decisions depend only on the posts' own
// timestamps, so a recorded corpus replays deterministically at any pace; a
// stray time.Now() deep in a bin or index silently couples decisions to the
// wall clock and breaks replay equivalence.
//
// The only allowed forms are the latency idioms
//
//	defer <histogram>.ObserveSince(time.Now())
//	defer <histogram>.ObserveNSince(time.Now(), n)
//
// whose time.Now() feeds only the instrumentation histogram, never a
// decision. Everything else must thread a timestamp or a clock through its
// inputs (posts carry their own Time; see connector.Pacer.SetClock).
package nowcheck

import (
	"go/ast"
	"strings"

	"firehose/internal/lint/analysis"
)

// Analyzer is the nowcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "nowcheck",
	Doc:  "forbids time.Now/time.Since in decision-path packages outside the `defer h.ObserveSince(time.Now())` and `defer h.ObserveNSince(time.Now(), n)` idioms",
	Run:  run,
}

// DecisionPathSuffixes lists the import-path suffixes of the packages where
// decisions are made and replay determinism must hold. Matching by suffix
// keeps the analyzer testable: a testdata module lays its packages out under
// the same trailing path.
var DecisionPathSuffixes = []string{
	"internal/core",
	"internal/postbin",
	"internal/simindex",
}

func run(pass *analysis.Pass) error {
	if !isDecisionPath(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		allowed := allowedNowCalls(file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			switch obj.Name() {
			case "Now", "Since":
				if !allowed[sel] {
					pass.Reportf(sel.Pos(), "time.%s in a decision-path package breaks replay determinism; thread the post timestamp or an injected clock instead (the only allowed forms are `defer h.ObserveSince(time.Now())` and `defer h.ObserveNSince(time.Now(), n)`)", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

func isDecisionPath(pkgPath string) bool {
	for _, sfx := range DecisionPathSuffixes {
		if pkgPath == sfx || strings.HasSuffix(pkgPath, "/"+sfx) {
			return true
		}
	}
	return false
}

// allowedNowCalls collects the time.Now selector that is the first argument
// of each `defer <expr>.ObserveSince(time.Now())` or
// `defer <expr>.ObserveNSince(time.Now(), n)` statement of the file.
func allowedNowCalls(file *ast.File) map[*ast.SelectorExpr]bool {
	allowed := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		fun, ok := def.Call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if want := map[string]int{"ObserveSince": 1, "ObserveNSince": 2}[fun.Sel.Name]; want == 0 || len(def.Call.Args) != want {
			return true
		}
		arg, ok := ast.Unparen(def.Call.Args[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := arg.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
			allowed[sel] = true
		}
		return true
	})
	return allowed
}
