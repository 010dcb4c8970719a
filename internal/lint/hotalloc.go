package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc enforces the //hddlint:noalloc contract: a function carrying
// the directive is a steady-state allocation-free kernel (the tiled
// PredictTiledRange/AccumulateTiledRange paths, the partition kernels,
// the detect chunk scorers), and its body must not contain the constructs that
// allocate on every call — make/new, growing append, closures,
// interface boxing of non-pointer-shaped values, string concatenation,
// or fmt calls. Deliberate cold-path allocations (lazy scratch growth
// behind a capacity check, amortized by a sync.Pool) stay legal via a
// site-level //hddlint:ignore hotalloc <reason>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocating constructs inside //hddlint:noalloc functions",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoallocDirective(fd.Doc) {
				continue
			}
			checkNoalloc(p, fd)
		}
	}
}

func checkNoalloc(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			p.Reportf(e.Pos(), "%s is //hddlint:noalloc but builds a closure, which heap-allocates its captures", name)
			return true
		case *ast.CallExpr:
			checkNoallocCall(p, name, e)
		case *ast.BinaryExpr:
			if e.Op.String() == "+" && isStringType(p.TypeOf(e.X)) {
				p.Reportf(e.Pos(), "%s is //hddlint:noalloc but concatenates strings, which allocates", name)
			}
		case *ast.AssignStmt:
			if e.Tok.String() == "+=" && len(e.Lhs) == 1 && isStringType(p.TypeOf(e.Lhs[0])) {
				p.Reportf(e.Pos(), "%s is //hddlint:noalloc but concatenates strings, which allocates", name)
			}
		}
		return true
	})
}

func checkNoallocCall(p *Pass, name string, call *ast.CallExpr) {
	// Builtins that allocate.
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltin(p, id) {
		switch id.Name {
		case "make", "new":
			p.Reportf(call.Pos(), "%s is //hddlint:noalloc but calls %s; allocate scratch up front or pool it", name, id.Name)
		case "append":
			p.Reportf(call.Pos(), "%s is //hddlint:noalloc but calls append, which allocates when it grows; write into a pre-sized buffer", name)
		}
		return
	}
	// fmt calls format through reflection and allocate.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[x].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				p.Reportf(call.Pos(), "%s is //hddlint:noalloc but calls fmt.%s, which allocates", name, sel.Sel.Name)
				return
			}
		}
	}
	// Interface boxing: a non-pointer-shaped concrete argument passed to
	// an interface parameter escapes to the heap.
	sigT := p.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if ok && sig.Params() != nil {
		np := sig.Params().Len()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= np-1:
				pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
			case i < np:
				pt = sig.Params().At(i).Type()
			}
			if pt == nil || !types.IsInterface(pt) {
				continue
			}
			at := p.TypeOf(arg)
			if at == nil || types.IsInterface(at) || pointerShaped(at) {
				continue
			}
			p.Reportf(arg.Pos(), "%s is //hddlint:noalloc but boxes a %s into an interface argument, which allocates", name, at.String())
		}
	}
	// Explicit conversions to an interface type: T(x) where T is an
	// interface and x is a concrete non-pointer-shaped value.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && types.IsInterface(tv.Type) && len(call.Args) == 1 {
		at := p.TypeOf(call.Args[0])
		if at != nil && !types.IsInterface(at) && !pointerShaped(at) {
			p.Reportf(call.Pos(), "%s is //hddlint:noalloc but boxes a %s into an interface, which allocates", name, at.String())
		}
	}
}

// pointerShaped reports whether values of t fit in an interface word
// without heap allocation: pointers, channels, maps, funcs and
// unsafe.Pointer. Slices, strings, structs and numbers all escape when
// boxed.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
