package analysis

import (
	"go/ast"
	"go/types"
)

// syncLockTypes are the sync types that must never be copied after first
// use (each embeds state or a noCopy marker).
var syncLockTypes = map[string]bool{
	"Mutex":     true,
	"RWMutex":   true,
	"WaitGroup": true,
	"Once":      true,
	"Cond":      true,
	"Map":       true,
	"Pool":      true,
}

// MutexCopy returns the analyzer that flags function results whose type
// contains a sync lock by value. go vet's copylocks check, which verify.sh
// and CI run, already flags lock-bearing parameters, value receivers,
// range value variables and assignments; it accepts a returned composite
// literal, so a constructor like `func New() guarded` would hand every
// caller its own copy of a lock meant to be shared. This is the project
// rule that the signatures of the mpisim/device layers never traffic in
// lock values at all — a copied barrier or window mutex deadlocks rank
// goroutines in ways that only reproduce under load.
func MutexCopy() *Analyzer {
	a := &Analyzer{
		Name: "mutexcopy",
		Doc:  "flag sync.Mutex (and friends) returned by value (go vet copylocks covers parameters, receivers and range values)",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		funcDecls(pass.Pkg, func(fd *ast.FuncDecl) {
			if fd.Type.Results == nil {
				return
			}
			for _, field := range fd.Type.Results.List {
				tv, ok := info.Types[field.Type]
				if !ok || !containsLock(tv.Type, nil) {
					continue
				}
				pass.Reportf(field.Pos(), "result of %s copies a lock (%s); use a pointer",
					fd.Name.Name, tv.Type)
			}
		})
	}
	return a
}

// containsLock reports whether t holds a sync lock by value, looking
// through named types, struct fields and arrays. seen guards recursive
// types.
func containsLock(t types.Type, seen map[*types.Named]bool) bool {
	switch x := t.(type) {
	case *types.Named:
		obj := x.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockTypes[obj.Name()] {
			return true
		}
		if seen[x] {
			return false
		}
		if seen == nil {
			seen = map[*types.Named]bool{}
		}
		seen[x] = true
		return containsLock(x.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < x.NumFields(); i++ {
			if containsLock(x.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(x.Elem(), seen)
	}
	return false
}
