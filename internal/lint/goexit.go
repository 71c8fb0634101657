package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// GoExit enforces goroutine lifecycle hygiene in the serving tier: every
// `go` statement in internal/ingest and cmd/* must be tied to a shutdown
// path, so shard, checkpoint and connection goroutines provably terminate
// when the process drains. A goroutine qualifies when its body
// (a function literal, or a same-package function resolved one level deep)
// shows one of the recognized ties:
//
//   - it selects on (or receives from) a done/stop/quit channel or
//     ctx.Done(),
//   - it ranges over a channel, terminating when the producer closes it,
//   - it signals a sync.WaitGroup via wg.Done(), or closes a done channel
//     (the shard-worker shape: `defer close(s.done)`), tying it to the
//     Wait or receive in Close/drain,
//   - it is loop-free: a run-to-completion helper that ends when its calls
//     return (the errc <- srv.ListenAndServe() shape).
//
// Goroutines whose body repolint cannot see — calls through function
// values, methods of other packages — are reported so the launch site
// carries an explicit //repolint:allow goexit justification naming the
// termination path.
var GoExit = &Analyzer{
	Name: "goexit",
	Doc:  "goroutines in the serving tier must be tied to a shutdown path (done channel, context, or waited WaitGroup)",
	Run:  runGoExit,
}

// goExitPkgs holds the exact-match scope; cmd/* is matched by prefix.
var goExitPkgs = map[string]bool{
	"netenergy/internal/ingest": true,
}

const goExitCmdPrefix = "netenergy/cmd/"

func inGoExitScope(path string) bool {
	return goExitPkgs[path] || strings.HasPrefix(path, goExitCmdPrefix)
}

func runGoExit(pass *Pass) error {
	if !inGoExitScope(pass.Pkg.Path()) {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g, decls)
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes this package's function declarations by object,
// so `go s.acceptLoop()` resolves to the loop body it launches.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	idx := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.ObjectOf(fd.Name); obj != nil {
				idx[obj] = fd
			}
		}
	}
	return idx
}

func checkGoStmt(pass *Pass, g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		if why := goroutineUntied(pass, fun.Body); why != "" {
			pass.Reportf(g.Pos(), "goroutine %s: tie it to a done channel, context, or a WaitGroup waited at shutdown", why)
		}
		return
	default:
		fn := calleeFunc(pass, g.Call)
		if fn != nil {
			if fd, ok := decls[types.Object(fn)]; ok {
				if why := goroutineUntied(pass, fd.Body); why != "" {
					pass.Reportf(g.Pos(), "goroutine %s %s: tie it to a done channel, context, or a WaitGroup waited at shutdown", fn.Name(), why)
				}
				return
			}
		}
		pass.Reportf(g.Pos(),
			"goroutine runs %s, whose body repolint cannot see: annotate the launch with its termination path",
			types.ExprString(g.Call.Fun))
	}
}

// shutdownNameRE matches identifiers conventionally carrying a shutdown
// signal.
var shutdownNameRE = regexp.MustCompile(`(?i)(done|stop|quit|shut|close|closing|drain|exit|cancel|ctx)`)

// goroutineUntied inspects a goroutine body and returns "" when a
// recognized termination tie is present, or a short description of the
// problem otherwise. Nested function literals are skipped — their lifetime
// is their own launch site's problem — with one exception: a closure that
// is directly deferred runs in this goroutine before it exits, so a
// wg.Done() inside `defer func() { ... }()` is this goroutine's tie.
func goroutineUntied(pass *Pass, body *ast.BlockStmt) string {
	deferred := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if fl, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
				deferred[fl] = true
			}
		}
		return true
	})
	hasLoop := false
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return deferred[n]
		case *ast.ForStmt:
			hasLoop = true
		case *ast.RangeStmt:
			hasLoop = true
			// Ranging over a channel ends when the producer closes it.
			if t := pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true
					return false
				}
			}
		case *ast.UnaryExpr:
			// A receive from a shutdown-named channel (bare or in a select
			// case) is the canonical tie.
			if n.Op == token.ARROW && isShutdownChan(pass, n.X) {
				tied = true
				return false
			}
		case *ast.CallExpr:
			if isCtxDoneCall(pass, n) {
				tied = true
				return false
			}
			if isWaitGroupDone(pass, n) || isShutdownClose(pass, n) {
				tied = true
				return false
			}
		}
		return true
	})
	if tied {
		return ""
	}
	if !hasLoop {
		// Run-to-completion: terminates when its calls return.
		return ""
	}
	return "loops without a recognized shutdown tie"
}

// isShutdownChan reports whether e is a channel-typed expression whose
// name suggests a shutdown signal (done, stop, quit, ...).
func isShutdownChan(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		return isCtxDoneCall(pass, call)
	}
	t := pass.TypesInfo.Types[e].Type
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		return shutdownNameRE.MatchString(e.Name)
	case *ast.SelectorExpr:
		return shutdownNameRE.MatchString(e.Sel.Name)
	}
	return false
}

// isShutdownClose matches close(ch) on a shutdown-named channel: the
// goroutine announcing its own exit to whoever waits on ch, which is what
// wg.Done() is with one waiter-visible bit instead of a counter.
func isShutdownClose(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin && isShutdownChan(pass, call.Args[0])
}

// isCtxDoneCall matches ctx.Done() for any context.Context receiver.
func isCtxDoneCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// isWaitGroupDone matches wg.Done() / wg.Add(-1)? — only Done; Add is a
// launch-side call — on a sync.WaitGroup receiver.
func isWaitGroupDone(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != "Done" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return strings.Contains(sig.Recv().Type().String(), "sync.WaitGroup")
}
