package analyze

import (
	"go/ast"
	"go/types"
)

// Rule is one kmvet check. Run sees the whole module (packages plus
// the call graph), so rules may be intraprocedural (walk one package at
// a time via perPackage) or interprocedural (walk Graph).
type Rule struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// perPackage lifts a per-package checker into the module-rule shape.
func perPackage(run func(p *Package) []Finding) func(m *Module) []Finding {
	return func(m *Module) []Finding {
		var out []Finding
		for _, p := range m.Packages {
			out = append(out, run(p)...)
		}
		return out
	}
}

// Rules returns every registered rule in reporting order.
func Rules() []Rule {
	return []Rule{
		{
			Name: "wrapformat",
			Doc:  "errors from index load paths (bwtmatch.Load*, fmindex.Read*, cluster.LoadRoutesFile) must be wrapped with %w before being returned, so each layer adds context and errors.Is against the sentinel (ErrFormat, ErrRoutes) keeps matching",
			Run:  perPackage(runWrapFormat),
		},
		{
			Name: "copylocks",
			Doc:  "structs containing sync.Mutex or sync.RWMutex must not be copied by value (parameters, results, receivers, assignments, call arguments, range clauses)",
			Run:  perPackage(runCopyLocks),
		},
		{
			Name: "nopanic",
			Doc:  "no panic in library (non-main) packages; assertions belong in kminvariants-tagged invariants*.go files, everything else returns an error",
			Run:  perPackage(runNoPanic),
		},
		{
			Name: "nostdlog",
			Doc:  "no fmt.Print*/log.Print* or builtin print/println in library (non-main) packages; log through an injected *slog.Logger or write to a caller-supplied io.Writer so daemons keep one structured log stream",
			Run:  perPackage(runNoStdLog),
		},
		{
			Name: "goroutinelifecycle",
			Doc:  "every go statement in library packages must be joined (sync.WaitGroup/Done discipline) or ctx-bounded (the goroutine observes a context.Context); fire-and-forget goroutines outlive drains and leak under churn",
			Run:  perPackage(runGoroutineLifecycle),
		},
		{
			Name: "lockheld",
			Doc:  "no blocking operation (channel send/receive, select without default, WaitGroup/Cond Wait, network or HTTP round-trips, time.Sleep) may be reachable — transitively through the call graph — while a sync.Mutex/RWMutex is held",
			Run:  runLockHeld,
		},
		{
			Name: "reachpanic",
			Doc:  "library functions must not reach a panic through any module-local call chain (invariants*.go files and Must*-prefixed helpers are carve-outs); panics in a request-serving fleet take down every in-flight batch",
			Run:  runReachPanic,
		},
		{
			Name: "boundedalloc",
			Doc:  "in decode paths (internal/binio, internal/fmindex, internal/shard, server/cluster, saveload), any make/ReadSlice sized by a value read from file or network input must be dominated by a length-cap check, so corrupt inputs fail cleanly instead of alloc-bombing",
			Run:  perPackage(runBoundedAlloc),
		},
		{
			Name: "closeerr",
			Doc:  "errors from Close/Flush/Sync on save paths (os.Create files, bufio.NewWriter) must be checked, not dropped or deferred bare — a full disk otherwise reports success over a truncated index; discards need //kmvet:ignore closeerr <reason>",
			Run:  perPackage(runCloseErr),
		},
	}
}

// RuleNames returns the names of every registered rule, in order.
func RuleNames() []string {
	rs := Rules()
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return names
}

// funcBodies visits every function body in the package exactly once
// (FuncDecl and FuncLit alike) — visit receives the body and must not
// descend into nested function literals itself.
func funcBodies(files []*ast.File, visit func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Body)
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					visit(fn.Body)
				}
			}
			return true
		})
	}
}

// inspectShallow walks body without entering nested function literals
// (they get their own funcBodies visit).
func inspectShallow(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// calleeFunc resolves the called function of a CallExpr to its types
// object, or nil for builtins, conversions and indirect calls.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
