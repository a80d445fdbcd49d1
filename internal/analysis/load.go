package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module (or a test
// fixture loaded through Loader.LoadDir).
type Package struct {
	// Path is the import path ("barytree/internal/trace").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Name is the package name ("trace", "main").
	Name string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression, definition, use and
	// selection records for Files.
	Info *types.Info
	// TypeErrors collects type-checking errors. Analyzers still run on a
	// package with errors, but drivers should surface them: findings on a
	// broken package are unreliable.
	TypeErrors []error
}

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved from source inside the module; standard library
// imports are type-checked from $GOROOT/src via go/importer's "source"
// compiler, so loading needs no export data, build cache or external
// tooling. Packages are cached by import path, so a Loader is cheap to
// reuse and must not be shared across goroutines.
type Loader struct {
	// Fset is shared by every package this loader loads.
	Fset *token.FileSet
	// ModulePath is the module path from go.mod ("barytree").
	ModulePath string
	// ModuleDir is the directory containing go.mod.
	ModuleDir string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader returns a loader for the module rooted at moduleDir (a
// directory containing go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  moduleDir,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Import implements types.Importer: module-internal paths load from the
// module tree, "unsafe" maps to types.Unsafe, everything else (the standard
// library) is delegated to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load loads the module package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
}

// LoadDir parses and type-checks the non-test Go files of dir as the
// package with the given import path. Fixture packages outside the module's
// walk (e.g. under testdata/) load the same way; their import path only
// needs to be unique within this loader.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if f.Name.Name != pkg.Name {
			return nil, fmt.Errorf("analysis: %s: mixed packages %s and %s", dir, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check reports the first error through conf.Error and keeps going; the
	// returned error duplicates TypeErrors, so it is deliberately dropped.
	pkg.Types, _ = conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadPattern resolves one command-line package argument: a directory
// relative to the module root (or absolute), with an optional "/..." suffix
// selecting the whole subtree. "./..." selects the module.
func (l *Loader) LoadPattern(pattern string) ([]*Package, error) {
	rec := false
	if pattern == "..." || strings.HasSuffix(pattern, "/...") {
		rec = true
		pattern = strings.TrimSuffix(strings.TrimSuffix(pattern, "..."), "/")
	}
	if pattern == "" || pattern == "." || pattern == "./" {
		pattern = l.ModuleDir
	}
	if !filepath.IsAbs(pattern) {
		pattern = filepath.Join(l.ModuleDir, pattern)
	}
	pattern = filepath.Clean(pattern)
	if !rec {
		path, err := l.importPathFor(pattern)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(pattern, path)
		if err != nil {
			return nil, err
		}
		return []*Package{pkg}, nil
	}
	dirs, err := l.packageDirs(pattern)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: no Go packages under %s", pattern)
	}
	return l.loadDirs(dirs)
}

func (l *Loader) loadDirs(dirs []string) ([]*Package, error) {
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// packageDirs returns every directory under root holding non-test Go files.
func (l *Loader) packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFiles(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

// goFiles lists dir's non-test Go files, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
