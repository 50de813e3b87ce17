package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// CheckUnused type-checks the package in each directory and returns a
// finding for every unexported package-level func, type, const or var, and
// every unexported method that no interface in the package names, that the
// package's non-test files never use. Test files are not read, so a helper
// only tests call is reported too: it belongs in a _test.go file.
//
// A use inside the object's own declaration (a recursive call, a type
// naming itself) does not count, and neither does a type's appearance as
// its own methods' receiver. Uses through generic instantiations resolve to
// their origin, so a method of a generic type used on any instance counts.
func CheckUnused(dirs []string) ([]Finding, error) {
	return check(dirs, unusedIn)
}

func unusedIn(fset *token.FileSet, pkg *loaded) []Finding {
	if pkg.pkg == nil {
		return nil
	}
	// Each candidate's own declaration: uses inside it are not uses.
	own := map[types.Object]ast.Node{}
	// Receiver type expressions, whose type idents are not uses.
	recv := map[*ast.Ident]bool{}
	for _, f := range pkg.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if obj := pkg.info.Defs[d.Name]; obj != nil {
					own[obj] = d
				}
				if d.Recv != nil {
					for _, fld := range d.Recv.List {
						ast.Inspect(fld.Type, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if obj := pkg.info.Defs[ts.Name]; obj != nil {
							own[obj] = ts
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range pkg.info.Uses { //mapiter:sorted
		if recv[id] {
			continue
		}
		obj = origin(obj)
		if decl, ok := own[obj]; ok && id.Pos() >= decl.Pos() && id.Pos() < decl.End() {
			continue
		}
		used[obj] = true
	}

	// Method names some interface in the package declares, embedded ones
	// included: an unexported method can only satisfy an interface of its
	// own package, and a call through the interface uses no concrete method.
	ifaceMethods := map[string]bool{}
	for expr, tv := range pkg.info.Types { //mapiter:sorted
		if _, ok := expr.(*ast.InterfaceType); !ok {
			continue
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}

	var findings []Finding
	report := func(obj types.Object, what string) {
		if used[obj] || obj.Exported() || obj.Name() == "_" {
			return
		}
		pos := fset.Position(obj.Pos())
		findings = append(findings, Finding{
			Pos:  fmt.Sprintf("%s/%s:%d", pkg.pkg.Name(), filepath.Base(pos.Filename), pos.Line),
			Text: what + " is unused outside tests",
		})
	}
	scope := pkg.pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if name != "init" && name != "main" {
				report(obj, "func "+name)
			}
		case *types.Const:
			report(obj, "const "+name)
		case *types.Var:
			report(obj, "var "+name)
		case *types.TypeName:
			report(obj, "type "+name)
			named, ok := obj.Type().(*types.Named)
			if !ok || named.Obj() != obj {
				continue // an alias: the methods are the aliased type's
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !ifaceMethods[m.Name()] {
					report(m, fmt.Sprintf("method (%s).%s", recvString(m), m.Name()))
				}
			}
		}
	}
	return findings
}

// origin maps an object reached through a generic instantiation back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvString renders a method's receiver type without its package path:
// T or *T.
func recvString(m *types.Func) string {
	t := m.Type().(*types.Signature).Recv().Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		ptr, t = "*", p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return ptr + n.Obj().Name()
	}
	return ptr + t.String()
}
