package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BoundedMake reports make calls in the storage and WAL decode paths
// whose size derives from a value decoded out of untrusted bytes without
// a dominating bounds check. The invariant (PR 4/6): corruption must
// produce a typed error, never an attacker-sized allocation — a flipped
// length field must not OOM the process.
//
// Taint is tracked per function, through local assignments: reads via
// encoding/binary and the repo's decoder helpers (u32, u64, uvarint, ...)
// are sources; len/cap-derived sizes are inherently bounded and stay
// clean. A tainted size is accepted when an if statement comparing the
// value appears earlier in the function (the bounds-check idiom), or when
// the size passes through min(). Field reads are not tracked — counts
// stored into validated structs (segment directories) are the caller's
// proof obligation.
var BoundedMake = &Analyzer{
	Name: "boundedmake",
	Doc:  "decode-path allocations must be bounds-checked against the input",
	Run:  runBoundedMake,
}

// taintMethods are receiver-method names that read raw integers off the
// wire in this repo's decoders (storage.decoder and the like).
var taintMethods = map[string]bool{
	"uvarint": true, "svarint": true, "varint": true,
	"u16": true, "u32": true, "u64": true, "byte": true,
	"uint16": true, "uint32": true, "uint64": true,
}

func runBoundedMake(pass *Pass) error {
	path := pass.Pkg.Path()
	if !strings.Contains(path, "storage") && !strings.Contains(path, "wal") {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkBoundedMake(pass, fd.Body)
			}
		}
	}
	return nil
}

func checkBoundedMake(pass *Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)
	isTainted := func(e ast.Expr) bool { return exprTainted(pass, tainted, e) }

	// Propagate taint through local assignments. Two passes so a value
	// flowing through an intermediate variable defined later in a branch
	// still registers.
	for range 2 {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0] // multi-value: taint all LHS together
					}
					if rhs == nil || !isTainted(rhs) {
						continue
					}
					if obj := identObj(pass, id); obj != nil {
						tainted[obj] = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && isTainted(n.Values[i]) {
						if obj := identObj(pass, name); obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
			return true
		})
	}

	// Record bounds checks: for each object, the position of every if
	// statement whose condition compares it.
	checks := make(map[types.Object][]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
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
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			default:
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				ast.Inspect(side, func(s ast.Node) bool {
					if id, ok := s.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							checks[obj] = append(checks[obj], ifs.Pos())
						}
					}
					return true
				})
			}
			return true
		})
		return true
	})

	checkedBefore := func(obj types.Object, pos token.Pos) bool {
		for _, p := range checks[obj] {
			if p < pos {
				return true
			}
		}
		return false
	}

	// Examine every make's size arguments.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "make") || len(call.Args) < 2 {
			return true
		}
		for _, size := range call.Args[1:] {
			reportUncheckedTaint(pass, tainted, checkedBefore, size, call.Pos())
		}
		return true
	})
}

// reportUncheckedTaint reports tainted, unchecked components of a make
// size expression. min() bounds its result, so its subtree is skipped.
func reportUncheckedTaint(pass *Pass, tainted map[types.Object]bool, checkedBefore func(types.Object, token.Pos) bool, size ast.Expr, makePos token.Pos) {
	ast.Inspect(size, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass, n.Fun, "min") {
				return false // explicitly clamped
			}
			if taintSourceCall(pass, n) {
				pass.Reportf(n.Pos(), "allocation sized directly from decoded input; bound it against the input length first")
				return false
			}
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[n]
			if obj != nil && tainted[obj] && !checkedBefore(obj, makePos) {
				pass.Reportf(n.Pos(), "allocation sized from decoded value %q without a dominating bounds check", n.Name)
			}
		}
		return true
	})
}

// exprTainted reports whether e's value may come straight off decoded
// input bytes.
func exprTainted(pass *Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion: taint flows through the operand
			}
			if isBuiltin(pass, n.Fun, "len") || isBuiltin(pass, n.Fun, "cap") || isBuiltin(pass, n.Fun, "min") {
				return false // inherently bounded by in-memory data
			}
			if taintSourceCall(pass, n) {
				found = true
			}
			return false // other call results are not traced
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil && tainted[obj] {
				found = true
			}
		case *ast.SelectorExpr:
			// Field reads are untracked; stop so the base ident's own
			// taint does not leak through (pi.nDict is not pi).
			if _, isField := pass.TypesInfo.Selections[n]; isField {
				return false
			}
		}
		return true
	})
	return found
}

// taintSourceCall reports whether the call reads an integer off raw
// input: anything from encoding/binary, or a decoder helper method.
func taintSourceCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	if pathOf(obj) == "encoding/binary" && strings.HasPrefix(obj.Name(), "Uint") {
		return true
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if pathOf(obj) == "encoding/binary" { // ByteOrder.Uint32 et al.
			return true
		}
		return taintMethods[strings.ToLower(obj.Name())]
	}
	return false
}

func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
