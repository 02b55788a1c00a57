package oracle

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTestsImportOracle parses every Go file of the module: no
// non-test file may import the oracle, and the oracle itself imports
// nothing of the module but expr, plan, catalog and storage — none of
// which imports a package whose in-package tests need the oracle.
func TestOnlyTestsImportOracle(t *testing.T) {
	const self = "ecodb/internal/oracle"
	allowed := map[string]bool{
		"ecodb/internal/expr": true, "ecodb/internal/plan": true,
		"ecodb/internal/catalog": true, "ecodb/internal/storage": true,
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		inOracle := filepath.Dir(rel) == filepath.FromSlash("internal/oracle")
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case p == self:
				t.Errorf("%s imports the oracle, which only tests may", rel)
			case inOracle && strings.HasPrefix(p, "ecodb/") && !allowed[p]:
				t.Errorf("%s imports %s; the oracle may import only expr, plan, catalog and storage", rel, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed only %d non-test files under %s: not the module root?", files, root)
	}
}
