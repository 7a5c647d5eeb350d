package rsr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
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
// -cachedir, -cluster and -shards apply to all of it. A call into the walker,
// a strategy runner, SimPoint or live-points from their non-test files is a
// simulation path the engine does not see.
func TestExperimentsRunThroughEngine(t *testing.T) {
	banned := map[string]string{ // import path → banned name prefix ("" bans all)
		"rsr/internal/sampling":   "Run",
		"rsr/internal/regimen":    "Run",
		"rsr/internal/simpoint":   "",
		"rsr/internal/livepoints": "",
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/experiments", "cmd/rsr"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
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
