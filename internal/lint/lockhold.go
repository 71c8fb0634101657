package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockHold forbids holding a mutex across a blocking operation — the
// deadlock shape the checkpoint and drain paths are most exposed to: a
// goroutine parks on a channel or a network round trip while holding the
// lock another goroutine needs to make the awaited event happen.
//
// The analysis is a must-hold lock-set dataflow over the cfg.go CFG:
// mu.Lock()/mu.RLock() adds the lock (named by its receiver expression),
// Unlock/RUnlock removes it, and a deferred Unlock removes nothing — the
// lock is held until return, which is precisely the window being checked.
// Blocking operations are the ones the serving tier performs: channel
// sends and receives, selects without a default, ranging over a channel,
// net reads/writes/accepts/dials, net/http round trips, (*os.File).Sync,
// sync.WaitGroup.Wait and time.Sleep. Calls whose bodies hide their
// blocking (a helper that does I/O) are out of intraprocedural reach;
// the analyzer checks what the locked function does directly.
// //repolint:allow lockhold suppresses a site with a written reason.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no mutex may be held across a blocking operation (channel op, network I/O, fsync, HTTP)",
	Run:  runLockHold,
}

// lockHoldPkgs is the scope: the serving tier, where shard workers and
// checkpoint saves mix locks with channels and sockets.
var lockHoldPkgs = map[string]bool{
	"netenergy/internal/ingest":            true,
	"netenergy/internal/ingest/checkpoint": true,
}

func runLockHold(pass *Pass) error {
	if !lockHoldPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.SourceFiles() {
		selectComms := selectCommStmts(f)
		funcBodies(f, func(body *ast.BlockStmt, decl *ast.FuncDecl, lit *ast.FuncLit) {
			if !hasLockAcquire(body) {
				return // no Lock call: the lock set stays empty throughout
			}
			an := &lockHoldFlow{pass: pass, selectComms: selectComms, reported: map[token.Pos]bool{}}
			runFlow(buildCFG(body), an, newLockSet())
		})
	}
	return nil
}

// hasLockAcquire cheaply pre-screens a body for a Lock-family method call
// before paying for CFG construction and the fixpoint solve.
func hasLockAcquire(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				found = true
			}
		}
		return !found
	})
	return found
}

// selectCommStmts collects the communication statements of every select in
// the file: the select itself is reported as the blocking point, so its
// comm clauses must not be re-flagged when they run in their clause blocks.
func selectCommStmts(f *ast.File) map[ast.Node]bool {
	comms := map[ast.Node]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
				comms[cc.Comm] = true
			}
		}
		return true
	})
	return comms
}

// lockSet is the must-hold set of lock names ("s.mu", "b.mu").
type lockSet struct {
	held map[string]bool
}

func newLockSet() *lockSet { return &lockSet{held: map[string]bool{}} }

func (s *lockSet) clone() flowState {
	c := newLockSet()
	for k := range s.held {
		c.held[k] = true
	}
	return c
}

// join is set intersection: a lock is held at a point only if it is held
// on every path into it, so merge points cannot invent held locks. The
// solver only joins states from paths that actually reach the block, so
// no artificial top element is needed.
func (s *lockSet) join(other flowState) bool {
	o := other.(*lockSet)
	changed := false
	for k := range s.held {
		if !o.held[k] {
			delete(s.held, k)
			changed = true
		}
	}
	return changed
}

func (s *lockSet) names() string {
	var out []string
	for k := range s.held {
		out = append(out, k)
	}
	// Deterministic order for diagnostics.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return strings.Join(out, ", ")
}

// lockHoldFlow implements flowAnalysis.
type lockHoldFlow struct {
	pass        *Pass
	selectComms map[ast.Node]bool
	reported    map[token.Pos]bool
}

func (l *lockHoldFlow) refine(cond ast.Expr, val bool, st flowState) {}

func (l *lockHoldFlow) transfer(n ast.Node, fst flowState, report bool) {
	st := fst.(*lockSet)
	if report && len(st.held) > 0 {
		l.findBlocking(n, st)
	}
	// Lock-set updates. Deferred unlocks are intentionally ignored: the
	// lock stays held for the rest of the function, which is the window
	// under scrutiny.
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return
	}
	flowScan(n, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name, key, ok := mutexOp(l.pass, call)
		if !ok {
			return
		}
		switch name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			st.held[key] = true
		case "Unlock", "RUnlock":
			delete(st.held, key)
		}
	})
}

// mutexOp matches a method call on a sync.Mutex/RWMutex receiver and
// returns the method name and the lock's identity (its receiver
// expression, e.g. "s.mu").
func mutexOp(pass *Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", false
	}
	recv := sig.Recv().Type().String()
	if !strings.Contains(recv, "sync.Mutex") && !strings.Contains(recv, "sync.RWMutex") {
		return "", "", false
	}
	return fn.Name(), types.ExprString(sel.X), true
}

// findBlocking reports blocking operations inside n while locks are held.
func (l *lockHoldFlow) findBlocking(n ast.Node, st *lockSet) {
	if l.selectComms[n] {
		return // already reported at its select
	}
	switch n := n.(type) {
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			l.report(n.Pos(), "select with no default", st)
		}
		return
	case *ast.SendStmt:
		l.report(n.Pos(), "channel send", st)
		return
	case *ast.RangeStmt:
		if t := l.pass.TypesInfo.Types[n.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				l.report(n.Pos(), "range over channel", st)
			}
		}
		return
	}
	flowScan(n, func(sub ast.Node) {
		switch sub := sub.(type) {
		case *ast.UnaryExpr:
			if sub.Op == token.ARROW {
				l.report(sub.Pos(), "channel receive", st)
			}
		case *ast.SendStmt:
			l.report(sub.Pos(), "channel send", st)
		case *ast.CallExpr:
			if desc, ok := blockingCall(l.pass, sub); ok {
				l.report(sub.Pos(), desc, st)
			}
		}
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies calls that park the goroutine: network I/O,
// HTTP round trips, fsync, WaitGroup.Wait, Sleep.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "net":
		switch name {
		case "Read", "Write", "Accept", "Dial", "DialTimeout", "DialTCP", "Listen", "ReadFrom", "WriteTo":
			return "net." + name, true
		}
	case "net/http":
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head", "RoundTrip", "ListenAndServe", "Serve", "Shutdown":
			return "http." + name, true
		}
	case "os":
		if name == "Sync" {
			return "fsync", true
		}
	case "sync":
		if name == "Wait" {
			sig, ok := fn.Type().(*types.Signature)
			if ok && sig.Recv() != nil && strings.Contains(sig.Recv().Type().String(), "WaitGroup") {
				return "WaitGroup.Wait", true
			}
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return "exec." + name, true
		}
	}
	return "", false
}

func (l *lockHoldFlow) report(pos token.Pos, what string, st *lockSet) {
	if l.reported[pos] {
		return
	}
	l.reported[pos] = true
	l.pass.Reportf(pos, "%s while holding %s: blocking operations must not run under a mutex", what, st.names())
}
