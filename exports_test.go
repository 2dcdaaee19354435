package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports lists the exported names under internal/ that no
// non-test code uses, each with the reason it stays. Keys are the
// package directory under internal/, the receiver type for a method,
// and the name. online.DefaultConsolidateRatio, a deprecated alias,
// needs no entry while perfbench compiles against it: the scan sees
// that use, and flags the alias once perfbench drops it.
var uncalledExports = map[string]string{
	"analysis.ResponseTimes":   "the FP response-time analysis on a bounded-delay supply: the oracle the executor's per-task response times are to be checked against",
	"supply.MinQExact":         "the minimum quantum under the exact Lemma 1 supply: BenchmarkAblationExactSupply measures it, and the executor's supply check is to build on it",
	"region.MaxSlackBandwidth": "the uncompiled twin of MaxSlackBandwidthCompiled and MaxFeasiblePeriod, the two searches the facade exports",
	"online.Manager.Remove":    "the single-task twin of Admit, which examples/faultinjection calls; tests call it at 29 sites",
	"online.Rejection.Unwrap":  "implements errors.Unwrap, which errors.Is and errors.As call",
	"task.Set.ByMode":          "a fixture selector with 28 call sites in 14 test files; deleting it would only move its code into tests",
	"task.Task.MarshalJSON":    "implements json.Marshaler",
	"task.Task.UnmarshalJSON":  "implements json.Unmarshaler",
}

// TestInternalExportsHaveCallers keeps internal/ free of code that
// nothing runs. Every package there is internal, so nothing outside
// this module can call it: an exported top-level func, method, type,
// const or var that no non-test file of the repository names (perfbench
// included) is dead code, or a test oracle that belongs in a _test.go
// file. The scan is syntactic: it parses every non-test .go file,
// skipping dot-directories and testdata, and counts an export as used
// when some identifier has its name, apart from the export's own
// declaration and the receiver types of its own methods. It matches by
// name, so an export whose name a called method or field shares
// (Validate, String, ...) escapes it. It also fails when an entry of
// uncalledExports gains a use or is no longer declared, so the list
// cannot go stale.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var exports []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, internal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		declared := map[*ast.Ident]bool{}
		declare := func(prefix string, name *ast.Ident) {
			declared[name] = true
			if internal && name.IsExported() {
				exports = append(exports, pkg+"."+prefix+name.Name)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				prefix := ""
				if decl.Recv != nil {
					if recv := receiverType(decl.Recv.List[0].Type); recv != nil {
						declared[recv] = true
						prefix = recv.Name + "."
					}
				}
				declare(prefix, decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare("", spec.Name)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							declare("", name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("found no exports under internal/: run from the repository root")
	}
	sort.Strings(exports)
	declaredKeys := map[string]bool{}
	for _, key := range exports {
		declaredKeys[key] = true
		name := key[strings.LastIndexByte(key, '.')+1:]
		_, kept := uncalledExports[key]
		switch {
		case uses[name] == 0 && !kept:
			t.Errorf("%s: no non-test code uses it; delete it, or move it into a _test.go file if a test needs it", key)
		case uses[name] > 0 && kept:
			t.Errorf("%s has a use now: drop it from uncalledExports", key)
		}
	}
	for key := range uncalledExports {
		if !declaredKeys[key] {
			t.Errorf("%s is in uncalledExports but no longer declared", key)
		}
	}
}

// receiverType returns the type name of a method receiver: T, *T, T[P]
// or *T[P, Q].
func receiverType(expr ast.Expr) *ast.Ident {
	if star, ok := expr.(*ast.StarExpr); ok {
		expr = star.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	id, _ := expr.(*ast.Ident)
	return id
}
