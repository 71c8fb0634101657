package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// This file is the standalone package loader: it resolves patterns with
// `go list -deps -export -json`, parses the matched packages' sources, and
// type-checks them against the compiler's export data, without a dependency
// on golang.org/x/tools/go/packages.

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Match      []string
	GoFiles    []string
	Module     *struct {
		Path      string
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// goList runs `go list -deps -export -json` in dir and decodes the stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter type-imports packages from compiler export data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// parseOne parses a single file with comments (directives live there).
// Legacy ast.Object resolution is skipped: every analyzer resolves
// identifiers through types.Info, never Ident.Obj.
func parseOne(fset *token.FileSet, name string) (*ast.File, error) {
	return parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
}

// newInfo allocates a types.Info with exactly the maps the analyzers
// read: Types, Defs, Uses (ObjectOf/TypeOf) and Selections. Implicits,
// Instances and Scopes are left nil so the checker skips recording them —
// the whole-module load is the suite's dominant cost.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// typeCheck parses and checks one package's files under the given import
// path, resolving imports through exports.
func typeCheck(fset *token.FileSet, path, srcDir string, goFiles []string, exports map[string]string, goVersion string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(srcDir, name)
		}
		f, err := parseOne(fset, name)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := &types.Config{
		Importer: exportImporter(fset, exports),
		Error:    func(error) {}, // collect everything; first error returned below
	}
	if goVersion != "" {
		conf.GoVersion = "go" + strings.TrimPrefix(goVersion, "go")
	}
	info := newInfo()
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// Load resolves patterns (e.g. "./...") relative to dir and returns the
// matched packages, parsed and type-checked. Dependency packages are
// imported from export data, not re-checked.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	var matched []*listedPackage
	for _, p := range listed {
		if len(p.Match) == 0 {
			continue // dependency, not a match for the patterns
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Name == "" || len(p.GoFiles) == 0 {
			continue
		}
		matched = append(matched, p)
	}

	// Parse and type-check the matched packages in parallel. A token.FileSet
	// is safe for concurrent use, and each package gets its own importer, so
	// the only shared mutable state is the file set's internal table. Results
	// land by index, keeping the output order deterministic (go list order).
	fset := token.NewFileSet()
	out := make([]*Package, len(matched))
	errs := make([]error, len(matched))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range matched {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			goVersion := ""
			if p.Module != nil {
				goVersion = p.Module.GoVersion
			}
			out[i], errs[i] = typeCheck(fset, p.ImportPath, p.Dir, p.GoFiles, exports, goVersion)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Run loads the patterns and applies the analyzers to every matched
// package, returning every diagnostic CheckPackage does (suppressed ones
// included). Packages are analyzed in parallel; diagnostics keep package
// load order.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			diags, err := CheckPackage(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %v", pkg.Path, err)
				return
			}
			perPkg[i] = diags
		}()
	}
	wg.Wait()
	var all []Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		all = append(all, perPkg[i]...)
	}
	return all, fset, nil
}
