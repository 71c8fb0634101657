// Package lint is the repo's static-analysis suite: a small go/analysis-style
// framework plus the four repolint analyzers that machine-check invariants
// neither the compiler, `go vet` nor a tier-1 test holds — determinism of the
// fixed-seed pipeline, sever-on-error ingest semantics, bounds on
// wire-derived allocation sizes, and no blocking under a lock. cmd/repolint
// is its one driver.
//
// The framework is deliberately dependency-free: golang.org/x/tools is not a
// module dependency, so Analyzer/Pass/Diagnostic are re-declared here with
// the same shape, packages are loaded through `go list -deps -export -json`,
// and types are imported from the compiler's export data via go/importer.
// DESIGN.md ("Statically enforced invariants") documents each analyzer and
// its escape hatches.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //repolint:allow suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package and reports diagnostics via pass.Report.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic; the framework marks it Suppressed
	// if a //repolint: directive covers it.
	Report func(Diagnostic)

	dirs *directiveIndex
}

// A Diagnostic is one finding at a source position. Suppressed marks a
// finding covered by a //repolint:allow or ordered directive, with its
// written justification; CheckPackage and Run return those too, and the
// caller decides which to act on.
type Diagnostic struct {
	Pos           token.Pos
	Analyzer      string
	Message       string
	Suppressed    bool
	Justification string
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// SourceFiles returns the package files that are not _test.go files.
// Invariant checks apply to shipped code; tests legitimately use wall
// clocks, global randomness and discarded errors.
func (p *Pass) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if !strings.HasSuffix(name, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// HasDirective reports whether the line containing pos, or the line above
// it, carries the named repolint directive (e.g. "ordered").
func (p *Pass) HasDirective(pos token.Pos, name string) bool {
	return p.dirs.at(p.Fset, pos, name) != nil
}

// ---- repolint directives ----
//
// Every escape hatch is an explicit comment of the form
//
//	//repolint:<directive> [args] — justification text
//
// where <directive> is one of:
//
//	allow <analyzer>  suppress that analyzer's diagnostics on this line
//	                  (or the line directly below the comment)
//	ordered           assert a map-range loop is intentionally emitting in
//	                  map order or is order-insensitive (determinism)
//
// A suppression without a written justification is itself a diagnostic:
// the acceptance bar is that every escape hatch carries a reason a
// reviewer can audit.

// directive is one parsed //repolint: comment.
type directive struct {
	pos  token.Pos
	name string // "allow" or "ordered"
	arg  string // analyzer name for "allow", "" otherwise
	why  string // justification text
}

// directiveIndex maps file+line to the directives attached there. A
// directive on line N covers diagnostics on line N and line N+1, matching
// the two idiomatic placements (end-of-line and line-above).
type directiveIndex struct {
	byLine map[string]map[int][]*directive
	all    []*directive
}

const directivePrefix = "//repolint:"

// parseDirectives scans every comment in the files.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: map[string]map[int][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				d := parseDirective(c.Pos(), c.Text)
				idx.all = append(idx.all, d)
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*directive{}
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return idx
}

// parseDirective splits "//repolint:allow severerr peer already gone" into
// its directive name, argument and justification.
func parseDirective(pos token.Pos, text string) *directive {
	body := strings.TrimPrefix(text, directivePrefix)
	// A ` //` inside the directive starts an ordinary trailing comment, not
	// part of the justification.
	if i := strings.Index(body, " //"); i >= 0 {
		body = body[:i]
	}
	fields := strings.Fields(body)
	d := &directive{pos: pos}
	if len(fields) == 0 {
		return d
	}
	d.name = fields[0]
	rest := fields[1:]
	if d.name == "allow" && len(rest) > 0 {
		d.arg = rest[0]
		rest = rest[1:]
	}
	why := strings.Join(rest, " ")
	why = strings.TrimLeft(why, "-—:– ")
	d.why = strings.TrimSpace(why)
	return d
}

// at returns a directive named name covering pos: on the same line, or on
// the line directly above (a comment line attached to the statement).
func (idx *directiveIndex) at(fset *token.FileSet, pos token.Pos, name string) *directive {
	p := fset.Position(pos)
	lines := idx.byLine[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.name == name {
				return d
			}
		}
	}
	return nil
}

// allowing returns the directive suppressing a diagnostic by analyzer at
// pos, or nil. "ordered" is accepted as sugar for "allow determinism" so a
// map-range justification reads naturally at the loop.
func (idx *directiveIndex) allowing(fset *token.FileSet, d Diagnostic) *directive {
	p := fset.Position(d.Pos)
	lines := idx.byLine[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, dir := range lines[line] {
			if dir.name == "allow" && dir.arg == d.Analyzer {
				return dir
			}
			if dir.name == "ordered" && d.Analyzer == "determinism" {
				return dir
			}
		}
	}
	return nil
}

// validate reports malformed directives: unknown names, allow without a
// known analyzer, and any escape hatch missing a written justification.
func (idx *directiveIndex) validate(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range idx.all {
		switch d.name {
		case "allow":
			if !known[d.arg] {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
					Message: fmt.Sprintf("repolint:allow names unknown analyzer %q", d.arg)})
				continue
			}
			if d.why == "" {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
					Message: fmt.Sprintf("repolint:allow %s needs a written justification", d.arg)})
			}
		case "ordered":
			if d.why == "" {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
					Message: "repolint:ordered needs a written justification"})
			}
		default:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "repolint",
				Message: fmt.Sprintf("unknown repolint directive %q", d.name)})
		}
	}
	return out
}

// All returns the full repolint analyzer suite: two AST-level analyzers
// (determinism, severerr) and the two dataflow analyzers (wiresize,
// lockhold) built on the cfg.go/dataflow.go engine.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		SeverErr,
		WireSize,
		LockHold,
	}
}

// CheckPackage runs the analyzers over one type-checked package and returns
// every diagnostic, sorted by position: analyzer findings — those covered by
// a //repolint:allow or ordered directive with Suppressed set and the
// directive's justification attached — plus any malformed-directive findings.
func CheckPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := parseDirectives(fset, files)
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			dirs:      dirs,
		}
		pass.Report = func(d Diagnostic) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			if dir := dirs.allowing(fset, d); dir != nil {
				d.Suppressed = true
				d.Justification = dir.why
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	for _, d := range dirs.validate(known) {
		if !strings.HasSuffix(fset.Position(d.Pos).Filename, "_test.go") {
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

func (a *Analyzer) String() string { return a.Name }
