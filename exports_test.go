package barytree_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names exported internal functions, as "pkg.Name", that
// no non-test file calls but that must stay exported anyway, each with the
// reason.
var exportAllowlist = map[string]string{
	"kernel.SetAsmKernels":       "kernel test hook: other packages' tests switch the assembly tiles off to pin them against the pure-Go bodies",
	"kernel.AsmKernelsAvailable": "kernel test hook: other packages' tests skip assembly-vs-Go comparisons on hosts without the instructions",
	"kernel.TileMaxULP":          "kernel test hook: the fp64 tile ULP contract other packages' equivalence tests assert against",
	"kernel.F32TileMaxULP":       "kernel test hook: the fp32 tile ULP contract other packages' equivalence tests assert against",
	"direct.Sum":                 "the serial O(N^2) reference other packages' tests check the treecode drivers against",
}

// TestNoUncalledInternalExports keeps exported internal API from regrowing
// without a caller. It parses every non-test .go file of the checkout —
// the library, internal/, cmd/, examples/ and the perfbench module — and
// fails on any exported function or method declared under internal/ that
// nothing uses. A package-level function is keyed by its package: a use
// is a selector alias.Name whose alias the file imports as the declaring
// package, or a bare Name inside the declaring package, so a same-named
// identifier elsewhere does not count. A method is matched by name only:
// its name must occur as an identifier somewhere other than in function
// declarations' names, so same-named methods and fields still shield each
// other. Test-only helpers belong in the _test.go files that use them.
// Methods of internal types the barytree package re-exports by alias
// (Particles = particle.Set) are public API, so they need no caller in the
// checkout.
func TestNoUncalledInternalExports(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.Fields(strings.SplitN(string(mod), "\n", 2)[0])[1]
	idents := map[string]int{} // identifier -> occurrences, declared names included
	declared := map[string]int{}
	uses := map[string]int{}    // "import/path.Name" -> qualified or same-package bare uses
	public := map[string]bool{} // "pkg.Type" of every type barytree aliases
	type export struct{ pos, path, pkg, recv, name string }
	var exported []export // every exported internal function; recv is the receiver type of a method
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
		self := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			self += "/" + dir
		}
		imports := map[string]string{} // local name -> import path
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			name := pathpkg.Base(ip)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = ip
		}
		declName := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			if fd, ok := dl.(*ast.FuncDecl); ok {
				declName[fd.Name] = true
			}
		}
		sel := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					uses[imports[x.Name]+"."+n.Sel.Name]++
				}
			case *ast.Ident:
				idents[n.Name]++
				if !sel[n] && !declName[n] {
					uses[self+"."+n.Name]++
				}
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
					exported = append(exported, export{fset.Position(fd.Pos()).String(), self, f.Name.Name, recvType(fd), fd.Name.Name})
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
		var unused bool
		if e.recv != "" {
			unused = !public[e.pkg+"."+e.recv] && idents[e.name] == declared[e.name]
		} else {
			_, allowed := exportAllowlist[e.pkg+"."+e.name]
			unused = !allowed && uses[e.path+"."+e.name] == 0
		}
		if unused {
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
