// Package msgimmutable enforces the message contract of the transports:
// a wire message, and every map, slice and pointer reachable from it,
// is immutable once it is sent. memnet and simnet hand the sender's
// value to every receiver, objects install request tuples into their
// state and ship that state in acks without copying, and readers keep
// the acks they absorb, so one write through a shared reference
// corrupts every party holding the message — exactly what a Byzantine
// handler editing a request in place would do.
//
// The check is intraprocedural. For each local variable and struct
// field it tracks how many dereferences away the memory it may share
// with a message is (see checker). Shared memory enters a function
// through parameters of a message type or of a named type reachable
// from a message's fields (internal/types: History, TSRVector, Value,
// ...), through type assertions to such types, and through calls
// returning a message; it flows through selection, indexing, ranging,
// assignment and stores. Memory the function allocated itself is its
// own, even when the values in it are shared. The analyzer reports
// assignments and ++/-- through a shared map, slice or pointer, and
// delete, clear, copy into, or append to a shared map or slice.
//
// Messages are recognised structurally, as wireexhaustive does: the
// concrete types of a package that implement its marker interface (one
// unexported niladic method, wire.Msg's isMsg shape).
package msgimmutable

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "msgimmutable",
	Doc:  "flag writes into maps, slices and pointers reachable from a wire message: messages are immutable once sent",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	msgs, shared := universe(pass.Pkg)
	if len(msgs) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c := &checker{pass: pass, msgs: msgs, shared: shared, dist: map[*types.Var]int{}}
				c.solve(fd)
				c.report(fd.Body)
			}
		}
	}
	return nil
}

// universe returns the message types visible from pkg (its own and its
// imports'), and those plus every named type reachable from their
// fields.
func universe(pkg *types.Package) (msgs, shared map[*types.TypeName]bool) {
	msgs, shared = map[*types.TypeName]bool{}, map[*types.TypeName]bool{}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			iface := marker(scope.Lookup(name))
			if iface == nil {
				continue
			}
			for _, other := range scope.Names() {
				tn, ok := scope.Lookup(other).(*types.TypeName)
				if ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) && types.Implements(tn.Type(), iface) {
					msgs[tn] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pkg)
	walked := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if walked[t] || types.IsInterface(t) {
			return
		}
		walked[t] = true
		if n, ok := t.(*types.Named); ok {
			shared[n.Obj()] = true
			walk(n.Underlying())
		} else if st, ok := t.(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				walk(st.Field(i).Type())
			}
		} else if e := elemOf(t); e != nil {
			walk(e)
		}
	}
	for tn := range msgs {
		walk(tn.Type())
	}
	return msgs, shared
}

// marker returns the interface obj declares if it has the marker
// shape: exactly one unexported method, with no parameters or results.
func marker(obj types.Object) *types.Interface {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() != 1 {
		return nil
	}
	m := iface.Method(0)
	sig := m.Type().(*types.Signature)
	if m.Exported() || sig.Params().Len() != 0 || sig.Results().Len() != 0 {
		return nil
	}
	return iface
}

// elemOf returns the element type of a pointer, slice, array, map or
// channel type (a map's value), nil for any other type.
func elemOf(t types.Type) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return u.Elem()
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Chan:
		return u.Elem()
	}
	return nil
}

// is reports whether t is a named type in set, or a pointer, slice,
// array, map or channel of one. A struct that merely holds such a field
// (an object's own state) does not count: its fields are reached
// through selectors, which the checker follows.
func is(t types.Type, set map[*types.TypeName]bool) bool {
	for ; t != nil; t = elemOf(t) {
		if n, ok := t.(*types.Named); ok && set[n.Obj()] {
			return true
		}
	}
	return false
}

// hasRefs reports whether a value of type t can share memory with
// another value.
func hasRefs(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Array:
		return hasRefs(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasRefs(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// clean is the distance of a value that reaches no shared memory.
const clean = 1 << 20

// add is the distance of a value stored n dereferences below one at d.
func add(d, n int) int { return min(d+n, clean) }

// sub is the distance of the values one dereference below one at d.
func sub(d int) int {
	if d >= clean {
		return clean
	}
	return max(1, d-1)
}

func sharedIf(b bool) int {
	if b {
		return 1
	}
	return clean
}

// checker tracks, for one function (closures included), the distance
// of each local variable and struct field from memory it may share with
// a message: the number of dereferences (slice or map element, pointer
// target) after which that memory may be reached. At distance 1 the
// value's own backing array, map or pointee may be shared, so no write
// may go through it; at distance 2 the container is the function's own
// but the values in it reference shared memory (a fresh history map of
// shared entries). A field is one location for the whole function,
// whatever value it is selected from, so every read of it sees every
// store into it, and storing a request tuple into one field of an
// object's state does not make its other fields look shared.
type checker struct {
	pass         *analysis.Pass
	msgs, shared map[*types.TypeName]bool
	dist         map[*types.Var]int
	flows        []flow
}

// flow is one way a location gets a value: expr, or its elements with
// elem, stored depth dereferences below it; or an opaque origin — a
// parameter or type-switch binding (expr == nil), a multi-value call
// result (call).
type flow struct {
	at         *types.Var
	expr       ast.Expr
	elem, call bool
	depth      int
}

func (c *checker) solve(fd *ast.FuncDecl) {
	info := c.pass.TypesInfo
	params := func(fl *ast.FieldList) {
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					c.flows = append(c.flows, flow{at: v})
				}
			}
		}
	}
	if fd.Recv != nil {
		params(fd.Recv)
	}
	params(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			params(n.Type.Params)
		case *ast.AssignStmt:
			c.assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			c.assign(lhs, n.Values)
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if v := c.localVar(e); v != nil {
					c.flows = append(c.flows, flow{at: v, expr: n.X, elem: true})
				}
			}
		case *ast.CaseClause:
			if v, ok := info.Implicits[n].(*types.Var); ok {
				c.flows = append(c.flows, flow{at: v})
			}
		case *ast.CallExpr:
			if builtinName(info, n) == "copy" && len(n.Args) == 2 {
				if _, at, depth := c.path(n.Args[0]); at != nil {
					c.flows = append(c.flows, flow{at: at, expr: n.Args[1], elem: true, depth: depth + 1})
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, f := range c.flows {
			if d := c.flowDist(f); d < c.locDist(f.at) {
				c.dist[f.at] = d
				changed = true
			}
		}
	}
}

func (c *checker) flowDist(f flow) int {
	t := f.at.Type()
	switch {
	case !hasRefs(t):
		return clean
	case f.expr == nil:
		return sharedIf(is(t, c.shared))
	case f.call:
		return sharedIf(is(t, c.msgs))
	case f.elem:
		return add(c.elemDist(f.expr), f.depth)
	}
	return add(c.exprDist(f.expr), f.depth)
}

func (c *checker) locDist(v *types.Var) int {
	if d, ok := c.dist[v]; ok {
		return d
	}
	return clean
}

func (c *checker) assign(lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			if _, at, depth := c.path(lhs[i]); at != nil {
				c.flows = append(c.flows, flow{at: at, expr: rhs[i], depth: depth})
			}
		}
		return
	}
	if len(rhs) != 1 {
		return
	}
	// v, ok := x.(T) / m[k] / <-ch take the first value's distance; a
	// multi-value call is judged by each variable's own type.
	_, call := ast.Unparen(rhs[0]).(*ast.CallExpr)
	for i, e := range lhs {
		if v := c.localVar(e); v != nil && (call || i == 0) {
			c.flows = append(c.flows, flow{at: v, expr: rhs[0], call: call})
		}
	}
}

// path walks an lvalue from the write inwards. through is the map,
// slice or pointer the write goes through first (nil when it writes a
// local variable, or a field or array element of a local value). at is
// the location the write stores into — the nearest field, or else the
// local variable at the base — and depth the dereferences between at
// and the write.
func (c *checker) path(e ast.Expr) (through ast.Expr, at *types.Var, depth int) {
	for {
		var next ast.Expr
		deref := false
		switch x := e.(type) {
		case *ast.ParenExpr:
			next = x.X
		case *ast.SelectorExpr:
			sel := c.pass.TypesInfo.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return through, at, depth
			}
			if through == nil && sel.Indirect() {
				through = x.X
			}
			if at == nil {
				at = sel.Obj().(*types.Var)
			}
			next = x.X
		case *ast.IndexExpr:
			deref, next = !c.isArray(x.X), x.X
		case *ast.StarExpr:
			deref, next = true, x.X
		case *ast.Ident:
			if at == nil {
				at = c.localVar(x)
			}
			return through, at, depth
		default:
			return through, at, depth
		}
		if deref {
			if through == nil {
				through = next
			}
			if at == nil {
				depth++
			}
		}
		e = next
	}
}

// typeOf returns e's type, nil if unknown. A comma-ok expression (map
// index, type assertion, receive) is recorded as a (T, bool) tuple; its
// value is the T.
func (c *checker) typeOf(e ast.Expr) types.Type {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	if tup, isTuple := tv.Type.(*types.Tuple); isTuple && tup.Len() > 0 {
		return tup.At(0).Type()
	}
	return tv.Type
}

func (c *checker) isArray(e ast.Expr) bool {
	t := c.typeOf(e)
	if t == nil {
		return false
	}
	_, isArray := t.Underlying().(*types.Array)
	return isArray
}

// localVar returns the local variable an identifier names.
func (c *checker) localVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent() == c.pass.Pkg.Scope() {
		return nil
	}
	return v
}

// elemDist is the distance of the elements of e (ranged, indexed,
// received or copied out of it).
func (c *checker) elemDist(e ast.Expr) int {
	if t := c.typeOf(e); t != nil {
		switch t.Underlying().(type) {
		case *types.Array:
			return c.exprDist(e)
		case *types.Chan:
			return sharedIf(is(t, c.shared))
		}
		if el := elemOf(t); el != nil && !hasRefs(el) {
			return clean
		}
	}
	return sub(c.exprDist(e))
}

// exprDist is the distance of e's value from shared memory.
func (c *checker) exprDist(e ast.Expr) int {
	t := c.typeOf(e)
	if t != nil && !hasRefs(t) {
		return clean
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.exprDist(e.X)
	case *ast.Ident:
		if v := c.localVar(e); v != nil {
			return c.locDist(v)
		}
	case *ast.SelectorExpr:
		sel := c.pass.TypesInfo.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return clean
		}
		// What the selected-from value held, or what was stored into
		// the field anywhere in the function.
		d := c.exprDist(e.X)
		if sel.Indirect() {
			d = c.elemDist(e.X)
		}
		return min(d, c.locDist(sel.Obj().(*types.Var)))
	case *ast.IndexExpr:
		return c.elemDist(e.X)
	case *ast.SliceExpr:
		return c.exprDist(e.X)
	case *ast.StarExpr:
		return c.elemDist(e.X)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.ARROW:
			return c.elemDist(e.X)
		case token.AND:
			if c.writesShared(e.X) {
				return 1
			}
			return add(c.exprDist(e.X), 1)
		}
	case *ast.TypeAssertExpr:
		return min(c.exprDist(e.X), sharedIf(t != nil && is(t, c.shared)))
	case *ast.CompositeLit:
		d := clean
		for _, elt := range e.Elts {
			if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
				d = min(d, c.exprDist(kv.Key))
				elt = kv.Value
			}
			d = min(d, c.exprDist(elt))
		}
		if t != nil {
			if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
				d = add(d, 1) // a fresh slice, map or array of the elements
			}
		}
		return d
	case *ast.CallExpr:
		return c.callDist(e, t)
	}
	return clean
}

func (c *checker) callDist(call *ast.CallExpr, t types.Type) int {
	info := c.pass.TypesInfo
	if fn, ok := info.Types[call.Fun]; ok && fn.IsType() {
		if len(call.Args) == 1 {
			return c.exprDist(call.Args[0]) // conversion
		}
		return clean
	}
	switch builtinName(info, call) {
	case "append":
		if len(call.Args) == 0 {
			return clean
		}
		d := c.exprDist(call.Args[0])
		for _, a := range call.Args[1:] {
			if call.Ellipsis.IsValid() {
				d = min(d, add(c.elemDist(a), 1)) // a's elements, copied into a fresh array
			} else {
				d = min(d, add(c.exprDist(a), 1))
			}
		}
		return d
	case "":
		return sharedIf(t != nil && is(t, c.msgs))
	}
	return clean // make, new, and the other builtins allocate or return no references
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// writesShared reports whether writing lvalue e would write memory a
// message may share.
func (c *checker) writesShared(e ast.Expr) bool {
	through, _, _ := c.path(e)
	return through != nil && c.exprDist(through) <= 1
}

const fix = "build a fresh value instead (messages are immutable once sent)"

// report walks the body for writes through shared references.
func (c *checker) report(body *ast.BlockStmt) {
	write := func(lhs ast.Expr) {
		if through, _, _ := c.path(lhs); through != nil && c.exprDist(through) <= 1 {
			c.pass.Reportf(lhs.Pos(), "write to %s goes through %s, which is reachable from a wire message: %s",
				types.ExprString(lhs), types.ExprString(through), fix)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.CallExpr:
			switch name := builtinName(c.pass.TypesInfo, n); {
			case len(n.Args) == 0 || (name != "delete" && name != "clear" && name != "copy" && name != "append"):
			case c.exprDist(n.Args[0]) > 1:
			case name == "append":
				c.pass.Reportf(n.Pos(), "append to %s, which is reachable from a wire message, may write its shared backing array: %s", types.ExprString(n.Args[0]), fix)
			default:
				c.pass.Reportf(n.Pos(), "%s into %s, which is reachable from a wire message: %s", name, types.ExprString(n.Args[0]), fix)
			}
		}
		return true
	})
}
