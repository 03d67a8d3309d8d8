package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// boundedalloc: in decode paths, an allocation sized by a value that
// was read from file or network input must be dominated by a length
// cap check — otherwise a corrupt or hostile input with a huge length
// field alloc-bombs the process before any content validation runs.
// This machine-enforces the PR 2 hardening discipline (DESIGN.md §6).
//
// Scope: the binary-decode packages (internal/binio, internal/fmindex,
// internal/shard), the save/load files of the root package,
// server/cluster (routes/wire decoding), and internal/seqio (streamed
// sequence input for the shard builders). Fixture packages (label
// "fixture/...") are always in scope.
//
// Taint, per function, by a small fixed point:
//   - a variable passed by address to a Read-like call
//     (binary.Read(r, le, &n), read(&m.Version), io.ReadFull) is
//     tainted;
//   - a variable assigned from a Read*/Uint* call result
//     (binio.ReadUint32, binary.LittleEndian.Uint64) is tainted;
//   - assignment propagates taint through conversions and arithmetic
//     (n := int(raw); total := n * 8).
//
// Sinks: make() size/cap arguments and binio.ReadSlice length
// arguments mentioning a tainted variable. A sink is clean when every
// tainted variable it mentions appears earlier in the function inside
// an if-condition comparison (<, >, <=, >=) — both the reject form
// (`if n > maxLen { return ErrFormat }`) and the clamp form
// (`if c > chunkElems { c = chunkElems }`) qualify. Function
// parameters are never tainted: the caller validated (or is itself in
// scope and gets checked).

func boundedAllocInScope(p *Package) bool {
	if strings.HasPrefix(p.Path, "fixture/") {
		return true
	}
	switch {
	case p.Path == "bwtmatch",
		strings.HasSuffix(p.Path, "internal/binio"),
		strings.HasSuffix(p.Path, "internal/fmindex"),
		strings.HasSuffix(p.Path, "internal/seqio"),
		strings.HasSuffix(p.Path, "internal/shard"),
		strings.HasSuffix(p.Path, "server/cluster"):
		return true
	}
	return false
}

// readLikeCallee reports whether a call reads decoded input: a callee
// named Read*/read*/Uint* (binary.Read, binio.ReadUint32, local read
// closures, binary.LittleEndian.Uint64).
func readLikeCallee(call *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "read") ||
		strings.HasPrefix(name, "Uint")
}

func runBoundedAlloc(p *Package) []Finding {
	if !boundedAllocInScope(p) {
		return nil
	}
	var out []Finding
	funcBodies(p.Files, func(body *ast.BlockStmt) {
		out = append(out, boundedAllocInBody(p, body)...)
	})
	return out
}

type allocSink struct {
	pos  token.Pos
	size ast.Expr
	what string
}

func boundedAllocInBody(p *Package, body *ast.BlockStmt) []Finding {
	tainted := make(map[types.Object]bool)
	// objOf resolves an expression to the root variable it denotes:
	// `n` → n, `&m.Version` (after unwrapping &) → m, `buf[i]` → buf.
	// Field-level taint collapses onto the whole struct — coarse, but
	// the guard check is per-object too, so a cap on any field of m
	// covers m (decode structs are validated as a unit in this repo).
	var objOf func(e ast.Expr) types.Object
	objOf = func(e ast.Expr) types.Object {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := p.Info.Defs[x]; obj != nil {
				return obj
			}
			return p.Info.Uses[x]
		case *ast.SelectorExpr:
			return objOf(x.X)
		case *ast.IndexExpr:
			return objOf(x.X)
		case *ast.StarExpr:
			return objOf(x.X)
		}
		return nil
	}
	mentionsTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil && tainted[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// Seed: address-taken into Read-like calls.
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !readLikeCallee(call) {
			return true
		}
		for _, arg := range call.Args {
			if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
				if obj := objOf(un.X); obj != nil {
					tainted[obj] = true
				}
			}
		}
		return true
	})

	// Seed + propagate through assignments until fixed point (depth of
	// real decode chains is tiny; cap the loop defensively).
	for range 4 {
		changed := false
		taint := func(lhs []ast.Expr, rhs []ast.Expr) {
			dirty := false
			for _, r := range rhs {
				hasRead := false
				ast.Inspect(r, func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok && readLikeCallee(c) {
						hasRead = true
					}
					return !hasRead
				})
				if hasRead || mentionsTainted(r) {
					dirty = true
				}
			}
			if !dirty {
				return
			}
			for _, l := range lhs {
				if obj := objOf(l); obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
		}
		inspectShallow(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				taint(x.Lhs, x.Rhs)
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(x.Names))
				for i, id := range x.Names {
					lhs[i] = id
				}
				taint(lhs, x.Values)
			}
			return true
		})
		if !changed {
			break
		}
	}
	if len(tainted) == 0 {
		return nil
	}

	// Guards: if-condition comparisons mentioning a tainted variable.
	type guard struct {
		obj types.Object
		pos token.Pos
	}
	var guards []guard
	inspectShallow(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			be, ok := c.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				for _, side := range []ast.Expr{be.X, be.Y} {
					ast.Inspect(side, func(sn ast.Node) bool {
						if id, ok := sn.(*ast.Ident); ok {
							if obj := p.Info.Uses[id]; obj != nil && tainted[obj] {
								guards = append(guards, guard{obj: obj, pos: ifs.Pos()})
							}
						}
						return true
					})
				}
			}
			return true
		})
		return true
	})
	guardedBefore := func(obj types.Object, pos token.Pos) bool {
		for _, g := range guards {
			if g.obj == obj && g.pos < pos {
				return true
			}
		}
		return false
	}

	// Sinks.
	var sinks []allocSink
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := ast.Unparen(call.Fun)
		if ix, ok := callee.(*ast.IndexExpr); ok {
			callee = ix.X // binio.ReadSlice[T](...)
		}
		switch fun := callee.(type) {
		case *ast.Ident:
			if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); isBuiltin && fun.Name == "make" {
				for _, sz := range call.Args[1:] {
					sinks = append(sinks, allocSink{pos: call.Pos(), size: sz, what: "make"})
				}
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "ReadSlice" {
				for _, a := range call.Args[1:] {
					sinks = append(sinks, allocSink{pos: call.Pos(), size: a, what: "ReadSlice"})
				}
			}
		}
		return true
	})

	var out []Finding
	for _, s := range sinks {
		var bad []string
		ast.Inspect(s.size, func(n ast.Node) bool {
			// len/cap of tainted data is not a hostile size: the slice it
			// measures was already allocated under its own cap check, so an
			// allocation proportional to it cannot outgrow what the decode
			// admitted (make([]T, len(toc.frames)) after readShardedTOC).
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
					if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "len" || id.Name == "cap") {
						return false
					}
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj != nil && tainted[obj] && !guardedBefore(obj, s.pos) {
				bad = append(bad, id.Name)
			}
			return true
		})
		if len(bad) > 0 {
			out = append(out, p.finding(s.pos, "boundedalloc",
				"%s sized by %s, which was read from input without a dominating length-cap check; compare it against a cap (and fail with ErrFormat) first",
				s.what, strings.Join(bad, ", ")))
		}
	}
	return out
}
