package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NakedGo enforces the bounded-worker-pool discipline of par.For: every
// `go` statement must live in a function that also waits for its
// goroutines through a sync.WaitGroup (or an errgroup.Group, should one
// appear). A goroutine spawned without a Wait in the same function
// outlives its spawner, which is how result buffers get written after
// they were read and how "deterministic" merges end up racing their
// consumers. par.For runs the fork/join pools of detect.ScanBatch,
// forest training, boost.parallelChunks, equiv.forEachShard and five
// experiments loops; the goroutines left elsewhere (the cart grower, the
// sweep scheduler, the trace pipeline, the serve shards) are not
// fork/join loops.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc:  "flags go statements whose spawning function never Waits on a WaitGroup/errgroup",
	Run:  runNakedGo,
}

func runNakedGo(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoStmts(p, fd.Body)
		}
	}
}

// checkGoStmts scans one function body. Function literals start their
// own scope: a `go` inside a closure must be justified by a Wait inside
// that same closure.
func checkGoStmts(p *Pass, body *ast.BlockStmt) {
	waits := waitsForGoroutines(p, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			checkGoStmts(p, e.Body)
			return false
		case *ast.GoStmt:
			if !waits {
				p.Reportf(e.Pos(), "go statement without a sync.WaitGroup/errgroup Wait in the same function; use the bounded worker-pool pattern (wg.Add / go / wg.Wait)")
			}
		}
		return true
	})
}

// waitsForGoroutines reports whether the body (excluding nested
// function literals) calls Wait on a sync.WaitGroup or errgroup.Group.
func waitsForGoroutines(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if isWaitableType(p.TypeOf(sel.X)) {
			found = true
		}
		return true
	})
	return found
}

// isWaitableType matches sync.WaitGroup and errgroup.Group receivers
// (plain or pointer).
func isWaitableType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "sync" && name == "WaitGroup") ||
		(strings.HasSuffix(pkg, "errgroup") && name == "Group")
}
