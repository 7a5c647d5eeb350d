package rsr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestPaperStackImportsNoFabric keeps the reproduction runnable with the
// fabric deleted: the twelve packages that are the paper's stack — ISA to
// sampling — may not depend, directly or through anything they import, on the
// engine, the coordinator, the content-addressed store or the fault injector.
func TestPaperStackImportsNoFabric(t *testing.T) {
	args := []string{"list", "-deps"}
	for _, name := range strings.Fields("isa prog workload funcsim mem bpred ooo trace core warmup sampling stats") {
		args = append(args, "./internal/"+name)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "rsr/internal/engine", "rsr/internal/cluster", "rsr/internal/cas", "rsr/internal/fault":
			t.Errorf("the paper's stack depends on %s; go list -deps ./internal/<package> finds through which one", dep)
		}
	}
}

// TestExperimentsRunThroughEngine keeps the experiment harness and its CLI on
// one door: every simulation they start is an engine job, so -parallel,
// -cachedir and -cluster apply to all of it. A call into the walker,
// a strategy runner or SimPoint from their non-test files is a simulation path
// the engine does not see.
func TestExperimentsRunThroughEngine(t *testing.T) {
	banned := map[string]string{ // import path → banned name prefix ("" bans all)
		"rsr/internal/sampling": "Run",
		"rsr/internal/regimen":  "Run",
		"rsr/internal/simpoint": "",
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/experiments", "cmd/rsr"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f := parseSource(t, fset, name)
			if f == nil {
				continue
			}
			prefix := map[string]string{} // local package name → banned prefix
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if p, ok := banned[path]; ok {
					local := filepath.Base(path)
					if imp.Name != nil {
						local = imp.Name.Name
					}
					prefix[local] = p
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok {
					if p, ok := prefix[pkg.Name]; ok && strings.HasPrefix(sel.Sel.Name, p) {
						t.Errorf("%s: %s.%s runs a simulation outside the engine; submit an engine.Job through Lab.runAll",
							fset.Position(call.Pos()), pkg.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// parseSource parses a non-test Go file, or returns nil for a test file.
func parseSource(t *testing.T, fset *token.FileSet, name string) *ast.File {
	t.Helper()
	if strings.HasSuffix(name, "_test.go") {
		return nil
	}
	f, err := parser.ParseFile(fset, name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWalkerIsTheOnlyClusterLoop holds sampling.RunRegions to being the one
// loop that sequences a warm-up method's skip (BeginSkip, EndSkip) with the
// timing model's measurement (SimulateSource): a call to any of the three
// from another non-test file of the module is a second cluster loop.
func TestWalkerIsTheOnlyClusterLoop(t *testing.T) {
	allowed := map[string][]string{ // file → the methods it may call
		"internal/sampling/walker.go": {"BeginSkip", "EndSkip", "SimulateSource"},
		// RunFullOpts: a full detailed run measures one region and skips none.
		"internal/sampling/sampling.go": {"SimulateSource"},
		// The benchmark's span-instrumented replay of the walker, held equal
		// to it by a gate; ROADMAP item 8(b) replaces it with the walker's own
		// instruments.
		"bench/replay.go": {"BeginSkip", "EndSkip", "SimulateSource"},
	}
	loop := map[string]bool{"BeginSkip": true, "EndSkip": true, "SimulateSource": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The directories the go tool leaves out of the module's packages.
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f := parseSource(t, fset, path)
		if f == nil {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if ok && loop[sel.Sel.Name] && !slices.Contains(allowed[filepath.ToSlash(path)], sel.Sel.Name) {
				t.Errorf("%s: %s outside the region walker; hand sampling.RunRegions a region list instead",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
