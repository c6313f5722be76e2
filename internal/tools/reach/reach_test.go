// Package reach is a test, not a library: it type-checks the module and
// its serving benchmark with go/parser and go/types and fails when an
// exported name under internal/, or a field of a configuration struct, is
// reached by no root and allowlist.txt does not say why it stays.
//
// Roots are every declaration in the non-test files of cmd/, examples/,
// the module's root package and bench/, plus the init functions of the
// packages they import. From them reachability is transitive through
// non-test code:
//   - a function, type, const or var is reached when reached code names it;
//   - a method is reached when reached code selects it, or when a reached
//     type implements an interface whose method reached code calls, or one
//     the standard library calls on the program's values (String, Error,
//     ServeHTTP, sort.Interface, ...);
//   - a type alias reaches its type, not the type's methods;
//   - a configuration field is live only when reached code writes it. A
//     write inside the field's own package, in the body of an if that tests
//     the field against its zero value, only fills in a default and does
//     not count.
//   - a value is live only when reached code produces it. A constant of a
//     module-defined type that reached code only compares against (an
//     operand of == or !=, or a case of an expression switch) is never
//     held by anything compared with it, so those uses do not reach it;
//     nor does naming a type as a case of a type switch, which only tests
//     for values something else must make.
//
// Names reached only because bench/ reaches them are reported as frozen by
// the benchmark; they are not gated.
package reach

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// report is the outcome of one analysis.
type report struct {
	dead     []string // keys no root reaches, sorted
	frozen   []string // keys only bench/ reaches, sorted
	exported int      // exported declarations under internal/
	fields   int      // fields of the configuration structs
}

type decl struct {
	pk   *pkg
	node ast.Node
}

// analyze loads the module at root and classifies every exported
// declaration under internal/ and every field of the named configuration
// structs (keys like "core.Config").
func analyze(root string, configs []string) (*report, error) {
	p, err := load(root)
	if err != nil {
		return nil, err
	}
	decls := map[types.Object][]decl{}
	gated := map[types.Object]string{} // what the report classifies, by key
	for _, pk := range p.pkgs {
		internal := strings.HasPrefix(pk.path, p.module+"/internal/")
		for _, f := range pk.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pk.info.Defs[d.Name]
					decls[obj] = append(decls[obj], decl{pk, d})
					if internal && d.Name.IsExported() {
						gated[obj] = p.key(obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							obj := pk.info.Defs[n]
							if obj == nil { // blank
								continue
							}
							decls[obj] = append(decls[obj], decl{pk, s})
							if internal && n.IsExported() {
								gated[obj] = p.key(obj)
							}
						}
					}
				}
			}
		}
	}
	rep := &report{exported: len(gated)}
	for _, c := range configs {
		name, typ, _ := strings.Cut(c, ".")
		obj := p.pkgs[p.module+"/internal/"+name].types.Scope().Lookup(typ)
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			gated[st.Field(i)] = c + "." + st.Field(i).Name()
			rep.fields++
		}
	}

	all := p.reach(decls, true)
	noBench := p.reach(decls, false)
	for obj, key := range gated {
		switch {
		case !all[obj]:
			rep.dead = append(rep.dead, key)
		case !noBench[obj]:
			rep.frozen = append(rep.frozen, key)
		}
	}
	sort.Strings(rep.dead)
	sort.Strings(rep.frozen)
	return rep, nil
}

// key names obj as its package path below internal/, then its receiver's
// type name for a method, then its own name.
func (p *program) key(obj types.Object) string {
	path := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), p.module+"/"), "internal/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			return path + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + obj.Name()
}

// reacher computes one reachability closure.
type reacher struct {
	p       *program
	decls   map[types.Object][]decl
	reached map[types.Object]bool // every live object, including written config fields
	queue   []decl
	types   []*types.TypeName                    // reached module types, in reach order
	calls   map[*types.Interface]map[string]bool // interface methods reached code calls
}

// reach returns the set of objects the roots reach, with or without
// bench/ among the roots.
func (p *program) reach(decls map[types.Object][]decl, withBench bool) map[types.Object]bool {
	r := &reacher{p: p, decls: decls, reached: map[types.Object]bool{}, calls: map[*types.Interface]map[string]bool{}}
	for _, d := range dispatched {
		if std, err := p.std.Import(d.path); err == nil {
			iface := std.Scope().Lookup(d.name).Type().Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				r.call(iface, iface.Method(i).Name())
			}
		}
	}
	r.call(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "Error")

	imported := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		pk, ok := p.pkgs[path]
		if !ok || imported[path] {
			return
		}
		imported[path] = true
		for _, dep := range pk.imports {
			visit(dep)
		}
	}
	for path, pk := range p.pkgs {
		if pk.root && (withBench || !pk.bench) {
			visit(path)
		}
	}
	for path := range imported {
		pk := p.pkgs[path]
		for _, f := range pk.files {
			for _, d := range f.Decls {
				if pk.root && (withBench || !pk.bench) || isInit(d) {
					r.queue = append(r.queue, decl{pk, d})
				}
			}
		}
	}

	for len(r.queue) > 0 {
		for len(r.queue) > 0 {
			d := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.walk(d)
		}
		r.dispatch()
	}
	return r.reached
}

func isInit(d ast.Decl) bool {
	if fn, ok := d.(*ast.FuncDecl); ok {
		return fn.Recv == nil && fn.Name.Name == "init"
	}
	gd, ok := d.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return false
	}
	for _, s := range gd.Specs {
		for _, n := range s.(*ast.ValueSpec).Names {
			if n.Name != "_" {
				return false
			}
		}
	}
	return true
}

func (r *reacher) call(iface *types.Interface, name string) {
	if r.calls[iface] == nil {
		r.calls[iface] = map[string]bool{}
	}
	r.calls[iface][name] = true
}

// mark records obj as reached and queues its declaration.
func (r *reacher) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				r.call(iface, o.Name())
				return
			}
		}
	case *types.Var:
		if o.IsField() {
			return // a field is live when written, not when read
		}
		r.markType(o.Type())
	case *types.Const:
		r.markType(o.Type())
	}
	if obj.Pkg() == nil || r.reached[obj] {
		return
	}
	if _, local := r.p.pkgs[obj.Pkg().Path()]; !local {
		return
	}
	r.reached[obj] = true
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		r.types = append(r.types, tn)
	}
	r.queue = append(r.queue, r.decls[obj]...)
}

// markType reaches the named type of a value whose declaration may not
// name it (an iota constant repeating the line above).
func (r *reacher) markType(t types.Type) {
	if n, ok := t.(*types.Named); ok {
		r.mark(n.Origin().Obj())
	}
}

// dispatch reaches, on every reached type, the methods that a called
// interface method can select.
func (r *reacher) dispatch() {
	for _, tn := range r.types {
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams() != nil || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		mset := types.NewMethodSet(ptr)
		for iface, names := range r.calls {
			if !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if m := iface.Method(i); names[m.Name()] {
					r.mark(mset.Lookup(m.Pkg(), m.Name()).Obj())
				}
			}
		}
	}
}

// walk reaches everything a declaration names and records the config
// fields it writes.
func (r *reacher) walk(d decl) {
	info := d.pk.info
	var stack []ast.Node
	ast.Inspect(d.node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && !r.onlyTests(obj, stack) {
				r.mark(obj)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				r.write(d.pk, lhs, stack)
			}
		case *ast.IncDecStmt:
			r.write(d.pk, n.X, stack)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.write(d.pk, n.X, stack)
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					r.written(info.Uses[kv.Key.(*ast.Ident)])
				} else {
					r.written(st.Field(i))
				}
			}
		}
		return true
	})
}

// onlyTests reports whether the use of obj at the top of stack only tests
// for a value: a module constant of a module-defined type compared with
// == or != or named as an expression switch's case, or a module type named
// as a type switch's case.
func (r *reacher) onlyTests(obj types.Object, stack []ast.Node) bool {
	if obj.Pkg() == nil {
		return false
	}
	if _, local := r.p.pkgs[obj.Pkg().Path()]; !local {
		return false
	}
	i := len(stack) - 2 // the parent of the identifier
	if sel, ok := stack[i].(*ast.SelectorExpr); ok && sel.Sel == stack[i+1] {
		i--
	}
	for {
		switch stack[i].(type) {
		case *ast.ParenExpr, *ast.StarExpr:
			i--
			continue
		}
		break
	}
	switch obj := obj.(type) {
	case *types.Const:
		named, ok := obj.Type().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return false
		}
		if _, local := r.p.pkgs[named.Obj().Pkg().Path()]; !local {
			return false
		}
		switch p := stack[i].(type) {
		case *ast.BinaryExpr:
			return p.Op == token.EQL || p.Op == token.NEQ
		case *ast.CaseClause:
			_, ok := stack[i-2].(*ast.SwitchStmt)
			return ok
		}
	case *types.TypeName:
		if _, ok := stack[i].(*ast.CaseClause); ok {
			_, ok := stack[i-2].(*ast.TypeSwitchStmt)
			return ok
		}
	}
	return false
}

// write records an assignment to expr, unless it is a field's own package
// filling in the field's zero-value default.
func (r *reacher) write(pk *pkg, expr ast.Expr, stack []ast.Node) {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.IndexExpr:
			expr = e.X
			continue
		case *ast.StarExpr:
			expr = e.X
			continue
		}
		break
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return
	}
	field, ok := pk.info.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() {
		return
	}
	field = field.Origin()
	if field.Pkg() == pk.types {
		for i := len(stack) - 2; i >= 0; i-- {
			if ifs, ok := stack[i].(*ast.IfStmt); ok && stack[i+1] == ifs.Body && testsZero(pk.info, ifs.Cond, field) {
				return
			}
		}
	}
	r.written(field)
}

func (r *reacher) written(obj types.Object) {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		r.reached[v.Origin()] = true
	}
}

// testsZero reports whether cond compares field against its zero value
// (== or <=).
func testsZero(info *types.Info, cond ast.Expr, field *types.Var) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.LEQ) {
			return !found
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			sel, ok := pair[0].(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.Origin() == field && isZero(info.Types[pair[1]]) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isZero(tv types.TypeAndValue) bool {
	switch v := tv.Value; {
	case tv.IsNil():
		return true
	case v == nil:
		return false
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	default:
		return constant.Sign(v) == 0
	}
}
