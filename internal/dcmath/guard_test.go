package dcmath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// contractPackages are the packages whose results are contracts (the
// golden corpus, fingerprints, cache entries, shard manifests).
var contractPackages = []string{
	"core", "cluster", "dcmath", "features", "gpu", "linalg", "metrics",
	"phase", "shard", "subset", "sweep", "synth",
}

// stdlibExps are the math functions whose amd64 results depend on the
// CPU: Exp and Exp2 take an FMA path when the CPU has FMA, and Expm1
// and Pow call them.
var stdlibExps = map[string]bool{"Exp": true, "Exp2": true, "Expm1": true, "Pow": true}

// TestContractPackagesUseOneExp fails on any reference to math.Exp,
// math.Exp2, math.Expm1 or math.Pow in a non-test file of a contract
// package: they call Exp and Pow of this package, whose bits do not
// depend on the CPU.
func TestContractPackagesUseOneExp(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range contractPackages {
		dir := filepath.Join("..", pkg)
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no Go files in %s: %v", dir, err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			mathName := ""
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "math" {
					mathName = "math"
					if imp.Name != nil {
						mathName = imp.Name.Name
					}
				}
			}
			if mathName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == mathName && stdlibExps[sel.Sel.Name] {
					t.Errorf("%s: math.%s; contract packages call dcmath.Exp and dcmath.Pow", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
