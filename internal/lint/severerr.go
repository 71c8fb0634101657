package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SeverErr enforces the ingest error contract (DESIGN.md "sever on
// corruption"): inside internal/ingest and internal/ingest/checkpoint,
// an error returned by a decode/CRC/sequence-validation function is a
// trust boundary. The frame it guards cannot be used, and the timestamp
// delta chain behind it cannot be trusted, so the error must flow into a
// sever/reject path — propagate to the caller, terminate the connection
// loop, or abandon the item. Three failure shapes are flagged:
//
//   - the error is discarded (expression statement, or assigned to _),
//   - the error is bound to a variable that is never checked,
//   - the error branch logs and falls through to keep using the data
//     ("logged-and-continued").
//
// A branch counts as severing when it leaves the code path that would
// consume the corrupt value: return, panic, goto, break/continue (abandon
// the item), or os.Exit/log.Fatal. //repolint:allow severerr suppresses a
// call site with a written reason.
var SeverErr = &Analyzer{
	Name: "severerr",
	Doc:  "decode/CRC/seq errors in ingest must sever, not be dropped or logged-and-continued",
	Run:  runSeverErr,
}

// severErrPkgs is the scope: the wire protocol, its checkpoint codec, and
// the trace container and LZ block codecs, whose block/batch decode paths
// consume the same untrusted bytes — a swallowed CRC or length error there
// silently corrupts everything downstream.
var severErrPkgs = map[string]bool{
	"netenergy/internal/ingest":            true,
	"netenergy/internal/ingest/checkpoint": true,
	"netenergy/internal/lz":                true,
	"netenergy/internal/trace":             true,
}

func runSeverErr(pass *Pass) error {
	if !severErrPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if body, ok := stmtList(n); ok {
				checkStmtList(pass, body)
			}
			return true
		})
	}
	return nil
}

// stmtList extracts the statement list from any node that owns one.
func stmtList(n ast.Node) ([]ast.Stmt, bool) {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List, true
	case *ast.CaseClause:
		return n.Body, true
	case *ast.CommClause:
		return n.Body, true
	}
	return nil, false
}

// guardedCall reports whether call invokes a decode/CRC/seq-family
// function that returns an error, returning the callee name.
func guardedCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	if !isGuardedName(fn.Name()) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if errorResultIndex(sig) < 0 {
		return "", false
	}
	return fn.Name(), true
}

// isGuardedName matches the decode/CRC/seq function families named by the
// ingest contract, plus the read* wire helpers and the frame reader's
// next() which surface CRC and framing errors.
func isGuardedName(name string) bool {
	lower := strings.ToLower(name)
	for _, frag := range []string{"decode", "crc", "seq"} {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return strings.HasPrefix(lower, "read") || name == "next"
}

// errorResultIndex returns the index of the (last) error result, or -1.
func errorResultIndex(sig *types.Signature) int {
	res := sig.Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if isErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorIface)
}

// checkStmtList examines each statement for guarded calls and traces the
// error result forward through the list.
func checkStmtList(pass *Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if name, ok := guardedCall(pass, call); ok {
					pass.Reportf(call.Pos(), "error from %s discarded: decode/CRC/seq failures must sever", name)
				}
			}
		case *ast.AssignStmt:
			checkGuardedAssign(pass, s, stmts[i+1:])
		case *ast.IfStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok {
				if name, errObj, ok := guardedAssign(pass, init); ok {
					if errObj == nil {
						pass.Reportf(init.Pos(), "error from %s assigned to _: decode/CRC/seq failures must sever", name)
					} else if condMentions(pass, s.Cond, errObj) {
						checkErrBranches(pass, s, errObj, name)
					}
				}
			}
		case *ast.ReturnStmt:
			// A guarded call in return position propagates the error to
			// the caller: the canonical sever-by-propagation shape.
		}
	}
}

// guardedAssign reports whether as binds the results of a guarded call,
// returning the callee name and the object the error result is bound to
// (nil when bound to the blank identifier).
func guardedAssign(pass *Pass, as *ast.AssignStmt) (string, types.Object, bool) {
	if len(as.Rhs) != 1 {
		return "", nil, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return "", nil, false
	}
	name, ok := guardedCall(pass, call)
	if !ok {
		return "", nil, false
	}
	fn := calleeFunc(pass, call)
	sig := fn.Type().(*types.Signature)
	idx := errorResultIndex(sig)
	if sig.Results().Len() == 1 {
		idx = 0
	}
	if idx >= len(as.Lhs) {
		return "", nil, false
	}
	id, ok := as.Lhs[idx].(*ast.Ident)
	if !ok {
		return "", nil, false
	}
	if id.Name == "_" {
		return name, nil, true
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return "", nil, false
	}
	return name, obj, true
}

// checkGuardedAssign handles `x, err := guarded()` as a standalone
// statement: the error object must be checked by a following if/switch
// (or returned) before the block ends or the variable is overwritten.
func checkGuardedAssign(pass *Pass, as *ast.AssignStmt, rest []ast.Stmt) {
	name, errObj, ok := guardedAssign(pass, as)
	if !ok {
		return
	}
	if errObj == nil {
		pass.Reportf(as.Pos(), "error from %s assigned to _: decode/CRC/seq failures must sever", name)
		return
	}
	for _, stmt := range rest {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			if condMentions(pass, s.Cond, errObj) {
				checkErrBranches(pass, s, errObj, name)
				return
			}
		case *ast.SwitchStmt:
			if switchMentions(pass, s, errObj) {
				checkErrSwitch(pass, s, errObj, name)
				return
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if exprMentions(pass, r, errObj) {
					return // propagated to the caller
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == errObj {
					// Overwritten before any check.
					pass.Reportf(as.Pos(), "error from %s overwritten before being checked", name)
					return
				}
			}
		}
	}
	pass.Reportf(as.Pos(), "error from %s never checked: decode/CRC/seq failures must sever", name)
}

// condMentions reports whether the expression references obj.
func condMentions(pass *Pass, cond ast.Expr, obj types.Object) bool {
	return cond != nil && exprMentions(pass, cond, obj)
}

func exprMentions(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

// checkErrBranches verifies the error branch of `if <cond involving err>`:
// for `err == nil` the error branch is the else; otherwise it is the body.
func checkErrBranches(pass *Pass, s *ast.IfStmt, errObj types.Object, name string) {
	errBranch := ast.Stmt(s.Body)
	if isEqNil(pass, s.Cond, errObj) {
		errBranch = s.Else
		if errBranch == nil {
			pass.Reportf(s.Pos(), "error from %s checked with == nil but the failure case is missing", name)
			return
		}
	}
	if !branchSevers(errBranch) {
		pass.Reportf(errBranch.Pos(),
			"error from %s logged-and-continued: the failure branch must sever (return, panic, or abandon the item)", name)
	}
}

// checkErrSwitch verifies a tagless switch over err (the frame-reader
// idiom): every clause except `case err == nil` must sever.
func checkErrSwitch(pass *Pass, s *ast.SwitchStmt, errObj types.Object, name string) {
	for _, clause := range s.Body.List {
		cc := clause.(*ast.CaseClause)
		if len(cc.List) == 1 && isEqNil(pass, cc.List[0], errObj) {
			continue // the success clause
		}
		body := &ast.BlockStmt{List: cc.Body}
		if !branchSevers(body) {
			pass.Reportf(cc.Pos(),
				"error from %s logged-and-continued in switch clause: the failure case must sever", name)
		}
	}
}

// switchMentions reports whether any case expression references obj.
func switchMentions(pass *Pass, s *ast.SwitchStmt, obj types.Object) bool {
	if s.Tag != nil && exprMentions(pass, s.Tag, obj) {
		return true
	}
	for _, clause := range s.Body.List {
		for _, e := range clause.(*ast.CaseClause).List {
			if exprMentions(pass, e, obj) {
				return true
			}
		}
	}
	return false
}

// isEqNil reports whether cond is exactly `obj == nil`.
func isEqNil(pass *Pass, cond ast.Expr, obj types.Object) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return false
	}
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if exprIsObj(pass, x, obj) && isNilIdent(pass, y) {
		return true
	}
	return exprIsObj(pass, y, obj) && isNilIdent(pass, x)
}

func exprIsObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(id) == obj
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.TypesInfo.ObjectOf(id).(*types.Nil)
	return isNil
}

// branchSevers reports whether the statement (an if-body, else branch, or
// case body) abandons the corrupt item: it contains a return, panic, goto,
// break/continue, or process-terminating call on some path. Logging alone
// does not qualify — control falling off the end of the branch re-enters
// the code that would consume the bad data.
func branchSevers(stmt ast.Stmt) bool {
	if stmt == nil {
		return false
	}
	severs := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if severs {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested closure's returns do not sever this path
		case *ast.ReturnStmt, *ast.BranchStmt:
			severs = true
			return false
		case *ast.CallExpr:
			if isTerminalCall(n) {
				severs = true
				return false
			}
		}
		return true
	})
	return severs
}

// isTerminalCall matches panic, os.Exit and the log.Fatal family.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		return name == "Exit" || strings.HasPrefix(name, "Fatal")
	}
	return false
}
