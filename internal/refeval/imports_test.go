package refeval

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportsNoEngineCode lists the packages refeval imports, directly or
// through another package of this module, and fails if the engine, the
// predicate compiler or any backend is among them: the reference must not
// share the code it checks.
func TestImportsNoEngineCode(t *testing.T) {
	forbidden := []string{"storage", "pred", "engine", "mpp", "graphstore", "cluster"}
	const module = "aiql/internal/"
	seen := map[string]bool{}
	var visit func(pkg, dir string)
	visit = func(pkg, dir string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			ast, err := parser.ParseFile(token.NewFileSet(), f, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range ast.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				name, ok := strings.CutPrefix(path, module)
				if !ok {
					continue
				}
				for _, bad := range forbidden {
					if name == bad || strings.HasPrefix(name, bad+"/") {
						t.Errorf("%s imports %s", pkg, path)
					}
				}
				visit(path, filepath.Join("..", filepath.FromSlash(name)))
			}
		}
	}
	visit(module+"refeval", ".")
	delete(seen, module+"refeval")
	if len(seen) == 0 {
		t.Fatal("found no imports at all; the walk is broken")
	}
	t.Logf("refeval depends on %d packages of this module", len(seen))
}
