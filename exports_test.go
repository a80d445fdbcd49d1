package barytree_test

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

// exportAllowlist names exported internal functions that no non-test file
// calls but that must stay exported anyway, each with the reason.
var exportAllowlist = map[string]string{
	"SetAsmKernels":       "kernel test hook: other packages' tests switch the assembly tiles off to pin them against the pure-Go bodies",
	"AsmKernelsAvailable": "kernel test hook: other packages' tests skip assembly-vs-Go comparisons on hosts without the instructions",
	"TileMaxULP":          "kernel test hook: the fp64 tile ULP contract other packages' equivalence tests assert against",
	"F32TileMaxULP":       "kernel test hook: the fp32 tile ULP contract other packages' equivalence tests assert against",
}

// TestNoUncalledInternalExports keeps exported internal API from regrowing
// without a caller. It parses every non-test .go file of the checkout —
// the library, internal/, cmd/, examples/ and the perfbench module — and
// fails on any exported function or method declared under internal/ whose
// name occurs as an identifier nowhere but in function declarations' names.
// Test-only helpers belong in the _test.go files that use them. Methods of
// internal types the barytree package re-exports by alias (Particles =
// particle.Set) are public API, so they need no caller in the checkout.
func TestNoUncalledInternalExports(t *testing.T) {
	idents := map[string]int{} // identifier -> occurrences, declared names included
	declared := map[string]int{}
	public := map[string]bool{} // "pkg.Type" of every type barytree aliases
	type export struct{ pos, name, owner string }
	var exported []export // every exported internal function; owner is "pkg.Type" for a method
	fset := token.NewFileSet()
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name]++
			}
			return true
		})
		if filepath.Dir(path) == "." {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
					if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
						public[sel.X.(*ast.Ident).Name+"."+sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dl := range f.Decls {
			if fd, ok := dl.(*ast.FuncDecl); ok {
				declared[fd.Name.Name]++
				if internal && fd.Name.IsExported() {
					exported = append(exported, export{fset.Position(fd.Pos()).String(), fd.Name.Name, f.Name.Name + "." + recvType(fd)})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) == 0 {
		t.Fatal("no exported internal functions found: is the test running from the repository root?")
	}
	sort.Slice(exported, func(i, j int) bool { return exported[i].pos < exported[j].pos })
	for _, e := range exported {
		if _, ok := exportAllowlist[e.name]; ok || public[e.owner] {
			continue
		}
		if idents[e.name] == declared[e.name] {
			t.Errorf("%s: %s is exported from internal/ but nothing outside test files calls it: delete it or move it into the test that uses it", e.pos, e.name)
		}
	}
}

// recvType returns the base type name of fd's receiver, or "" for a
// function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch t := t.(type) {
	case *ast.IndexExpr:
		return t.X.(*ast.Ident).Name
	case *ast.IndexListExpr:
		return t.X.(*ast.Ident).Name
	}
	return t.(*ast.Ident).Name
}
