package service

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesDoNotImportFacade enforces the layering
// internal/* ← facade ← cmds: no non-test file of a package under
// internal/ may import the root package "repro". The facade re-exports
// internal packages, so an internal import of it inverts the layers (and
// is one refactor away from an import cycle).
func TestInternalPackagesDoNotImportFacade(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro" {
				t.Errorf("%s imports the facade package \"repro\"", filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no internal source files found")
	}
}
