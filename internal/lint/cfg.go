package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of the dataflow engine behind the
// wiresize and lockhold analyzers: it lowers one function body
// (FuncDecl or FuncLit) into a graph of basic blocks with branch-labelled
// edges. The lowering is intraprocedural and deliberately small — no SSA,
// no interprocedural summaries — because the invariants it feeds
// (bound-before-allocate, no-blocking-under-lock) are stated per function
// in DESIGN.md and the repo's decode/serving code follows that shape.
//
// Edges out of an if/for condition carry the condition expression and the
// polarity of the branch, which is what lets the taint analysis learn
// `n <= max` on the fall-through edge of `if n > max { return ErrCorrupt }`.

// cfgBlock is one basic block: nodes executed in order, then a branch.
type cfgBlock struct {
	nodes []ast.Node
	succs []cfgEdge
}

// cfgEdge is a control transfer. When cond is non-nil the edge is taken
// exactly when cond evaluates to val, so a dataflow can refine facts about
// the operands of cond separately on each side of a branch.
type cfgEdge struct {
	to   *cfgBlock
	cond ast.Expr
	val  bool
}

// funcCFG is the lowered body of one function.
type funcCFG struct {
	entry  *cfgBlock
	blocks []*cfgBlock
}

// cfgBuilder tracks the current insertion point plus the break/continue
// targets of the enclosing loops and switches.
type cfgBuilder struct {
	cfg *funcCFG
	cur *cfgBlock // nil after a terminator (return, branch)

	// breakTo/continueTo are stacks, innermost last. Each entry carries
	// the statement label (or "") so labeled break/continue resolve.
	breakTo    []labeledTarget
	continueTo []labeledTarget

	// gotos are patched once all labels are seen.
	labels map[string]*cfgBlock
	gotos  []pendingGoto
}

type labeledTarget struct {
	label string
	block *cfgBlock
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG lowers body into a funcCFG. It never descends into nested
// function literals: a FuncLit is a value in the enclosing graph and a
// separate analysis unit of its own.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{cfg: &funcCFG{}, labels: map[string]*cfgBlock{}}
	b.cfg.entry = b.newBlock()
	b.cur = b.cfg.entry
	b.stmtList(body.List, "")
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			g.from.succs = append(g.from.succs, cfgEdge{to: target})
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

// emit appends a node to the current block, reviving a dead insertion
// point (unreachable code after return) into a fresh disconnected block so
// later statements are still analyzed with an empty in-state.
func (b *cfgBuilder) emit(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

// jump adds an unconditional edge from the current block and kills the
// insertion point.
func (b *cfgBuilder) jump(to *cfgBlock) {
	if b.cur != nil {
		b.cur.succs = append(b.cur.succs, cfgEdge{to: to})
	}
	b.cur = nil
}

// branch adds the true/false pair of edges for cond from the current block.
func (b *cfgBuilder) branch(cond ast.Expr, onTrue, onFalse *cfgBlock) {
	if b.cur == nil {
		return
	}
	if cond == nil {
		// `for {}` — only the body edge exists.
		b.cur.succs = append(b.cur.succs, cfgEdge{to: onTrue})
	} else {
		b.cur.succs = append(b.cur.succs,
			cfgEdge{to: onTrue, cond: cond, val: true},
			cfgEdge{to: onFalse, cond: cond, val: false})
	}
	b.cur = nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, label string) {
	for i, s := range list {
		// Only the first statement of the list can consume the label.
		if i > 0 {
			label = ""
		}
		b.stmt(s, label)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List, "")

	case *ast.LabeledStmt:
		// The label marks a join point so goto can land there.
		target := b.newBlock()
		b.jump(target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(s.Cond) // evaluate the condition (it may contain calls)
		thenB, exit := b.newBlock(), b.newBlock()
		elseB := exit
		if s.Else != nil {
			elseB = b.newBlock()
		}
		b.branch(s.Cond, thenB, elseB)
		b.cur = thenB
		b.stmtList(s.Body.List, "")
		b.jump(exit)
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else, "")
			b.jump(exit)
		}
		b.cur = exit

	case *ast.ForStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		head, body, exit := b.newBlock(), b.newBlock(), b.newBlock()
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.emit(s.Cond)
		}
		b.branch(s.Cond, body, exit)
		post := b.newBlock()
		b.pushLoop(label, exit, post)
		b.cur = body
		b.stmtList(s.Body.List, "")
		b.popLoop()
		b.jump(post)
		b.cur = post
		if s.Post != nil {
			b.emit(s.Post)
		}
		b.jump(head)
		b.cur = exit

	case *ast.RangeStmt:
		head, body, exit := b.newBlock(), b.newBlock(), b.newBlock()
		// The RangeStmt node itself carries the key/value assignment and
		// the ranged expression; transfers see it at the head of the loop.
		b.emit(s)
		b.jump(head)
		b.cur = head
		b.cur.succs = append(b.cur.succs, cfgEdge{to: body}, cfgEdge{to: exit})
		b.cur = nil
		b.pushLoop(label, exit, head)
		b.cur = body
		b.stmtList(s.Body.List, "")
		b.popLoop()
		b.jump(head)
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		b.caseBodies(s.Body.List, label, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.emit(s.Init)
		}
		b.emit(s.Assign)
		b.caseBodies(s.Body.List, label, nil)

	case *ast.SelectStmt:
		// The select itself is a (blocking) operation; each comm clause
		// then runs its communication and body.
		b.emit(s)
		b.caseBodies(s.Body.List, label, s)

	case *ast.ReturnStmt:
		b.emit(s)
		b.cur = nil

	case *ast.BranchStmt:
		b.emit(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breakTo, s.Label); t != nil {
				b.jump(t)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if t := b.findTarget(b.continueTo, s.Label); t != nil {
				b.jump(t)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			if b.cur != nil && s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// caseBodies wires the fallthrough edge; nothing to do here.
		}

	default:
		// Expression, assignment, declaration, send, inc/dec, go, defer,
		// empty: straight-line nodes.
		b.emit(s)
	}
}

// caseBodies lowers the clause list of a switch/type-switch/select. sel is
// non-nil for selects, whose clauses carry a communication statement.
func (b *cfgBuilder) caseBodies(clauses []ast.Stmt, label string, sel *ast.SelectStmt) {
	exit := b.newBlock()
	entry := b.cur
	b.cur = nil
	bodies := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
		if entry != nil {
			entry.succs = append(entry.succs, cfgEdge{to: bodies[i]})
		}
	}
	if entry != nil && sel == nil && !hasDefaultClause(clauses) {
		// A switch without a default can match nothing and fall through.
		entry.succs = append(entry.succs, cfgEdge{to: exit})
	}
	for i, clause := range clauses {
		b.cur = bodies[i]
		var body []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				b.emit(e)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				b.emit(c.Comm)
			}
			body = c.Body
		}
		b.pushSwitch(label, exit)
		b.stmtList(body, "")
		b.popSwitch()
		// An explicit fallthrough jumps into the next clause body.
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(bodies) {
				b.jump(bodies[i+1])
				continue
			}
		}
		b.jump(exit)
	}
	b.cur = exit
}

// hasDefaultClause reports whether a switch clause list contains default.
func hasDefaultClause(clauses []ast.Stmt) bool {
	for _, clause := range clauses {
		if c, ok := clause.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.breakTo = append(b.breakTo, labeledTarget{label: label, block: brk})
	b.continueTo = append(b.continueTo, labeledTarget{label: label, block: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

func (b *cfgBuilder) pushSwitch(label string, brk *cfgBlock) {
	b.breakTo = append(b.breakTo, labeledTarget{label: label, block: brk})
}

func (b *cfgBuilder) popSwitch() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
}

// findTarget resolves a (possibly labeled) break/continue target.
func (b *cfgBuilder) findTarget(stack []labeledTarget, label *ast.Ident) *cfgBlock {
	if len(stack) == 0 {
		return nil
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}
