package lint

import (
	"errors"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The analyzer tests follow the golang.org/x/tools analysistest convention:
// each testdata/src/<case> directory holds a small package whose lines are
// annotated with `// want "regex"` comments naming the diagnostics the
// analyzer must report there. The harness type-checks the package under a
// chosen (possibly fake) import path — so path-scoped analyzers like
// determinism and severerr can be pointed into or out of their scope — runs
// the chosen analyzers, and requires an exact match: every want satisfied,
// no unexpected diagnostics.

// repoRoot is the module root relative to this package.
const repoRoot = "../.."

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// testExports builds the export-data map the testdata packages' imports
// resolve against: the std packages they use.
func testExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		pkgs, err := goList(repoRoot, []string{
			"bytes", "encoding/binary", "errors", "io", "log", "math/rand",
			"sync", "time",
		})
		if err != nil {
			exportsErr = err
			return
		}
		exportsMap = map[string]string{}
		for _, p := range pkgs {
			if p.Export != "" {
				exportsMap[p.ImportPath] = p.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatalf("resolving export data: %v", exportsErr)
	}
	return exportsMap
}

// expectation is one `// want` annotation.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants extracts expectations from the files' source text.
func parseWants(t *testing.T, files []string) []*expectation {
	t.Helper()
	var out []*expectation
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quotedRE.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted regexp)", name, i+1)
			}
			for _, q := range quoted {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", name, i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
				}
				out = append(out, &expectation{file: name, line: i + 1, re: re})
			}
		}
	}
	return out
}

// checkCase type-checks testdata/src/<dir> under importPath, runs the
// analyzers and returns the fixture's files with the diagnostics no
// directive suppresses — what cmd/repolint would print.
func checkCase(t *testing.T, analyzers []*Analyzer, dir, importPath string) (*token.FileSet, []string, []Diagnostic) {
	t.Helper()
	srcDir := filepath.Join("testdata", "src", dir)
	matches, err := filepath.Glob(filepath.Join(srcDir, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no testdata in %s (%v)", srcDir, err)
	}
	sort.Strings(matches)

	fset, exports := token.NewFileSet(), testExports(t)
	pkg, err := typeCheck(fset, importPath, ".", matches, exports, "")
	if err != nil {
		t.Fatalf("typecheck %s: %v", srcDir, err)
	}
	diags, err := CheckPackage(fset, pkg.Files, pkg.Types, pkg.Info, analyzers)
	if err != nil {
		t.Fatalf("analyze %s: %v", srcDir, err)
	}
	active := diags[:0]
	for _, d := range diags {
		if !d.Suppressed {
			active = append(active, d)
		}
	}
	return fset, matches, active
}

// runCase checks the analyzers' unsuppressed diagnostics over
// testdata/src/<dir> against the package's want annotations.
func runCase(t *testing.T, analyzers []*Analyzer, dir, importPath string) {
	t.Helper()
	fset, matches, diags := checkCase(t, analyzers, dir, importPath)
	wants := parseWants(t, matches)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// runCaseNoWants re-checks a fixture under an out-of-scope import path and
// requires zero diagnostics, ignoring the in-scope want annotations.
func runCaseNoWants(t *testing.T, analyzers []*Analyzer, dir, importPath string) {
	t.Helper()
	fset, _, diags := checkCase(t, analyzers, dir, importPath)
	for _, d := range diags {
		t.Errorf("%s: unexpected out-of-scope diagnostic: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

func TestDeterminism(t *testing.T) {
	// In scope: the fake import path is one of the deterministic pipeline
	// packages, so the wall-clock/rand/map-order rules apply.
	runCase(t, []*Analyzer{Determinism}, "determinism", "netenergy/internal/synthgen")
}

func TestDeterminismOutOfScope(t *testing.T) {
	// The same kind of code under a non-pipeline import path is clean:
	// ingest and obs are wall-clock subsystems by design.
	runCase(t, []*Analyzer{Determinism}, "determinism_out", "netenergy/internal/obsworker")
}

func TestSeverErr(t *testing.T) {
	runCase(t, []*Analyzer{SeverErr}, "severerr", "netenergy/internal/ingest")
}

func TestSeverErrOutOfScope(t *testing.T) {
	runCase(t, []*Analyzer{SeverErr}, "severerr_out", "netenergy/internal/flows")
}

func TestSeverErrLZ(t *testing.T) {
	runCase(t, []*Analyzer{SeverErr}, "severerr_lz", "netenergy/internal/lz")
}

func TestSeverErrTrace(t *testing.T) {
	runCase(t, []*Analyzer{SeverErr}, "severerr_trace", "netenergy/internal/trace")
}

func TestWireSize(t *testing.T) {
	runCase(t, []*Analyzer{WireSize}, "wiresize", "netenergy/internal/trace")
}

func TestWireSizeOutOfScope(t *testing.T) {
	// The same unguarded shape outside the decoder packages is clean.
	runCase(t, []*Analyzer{WireSize}, "wiresize_out", "netenergy/internal/analysis")
}

func TestLockHold(t *testing.T) {
	runCase(t, []*Analyzer{LockHold}, "lockhold", "netenergy/internal/ingest")
}

func TestLockHoldOutOfScope(t *testing.T) {
	runCaseNoWants(t, []*Analyzer{LockHold}, "lockhold", "netenergy/internal/flows")
}

// TestSuiteCleanAtHead is the acceptance gate: the full analyzer suite
// reports no unsuppressed diagnostic over the repository, and every
// suppressed one is complete — it resolves to a file and line, names its
// analyzer and message, and carries the written reason a reviewer audits.
func TestSuiteCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, fset, err := Run(repoRoot, []string{"./..."}, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	suppressed := 0
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !d.Suppressed {
			t.Errorf("%s: [%s] %s", pos, d.Analyzer, d.Message)
			continue
		}
		suppressed++
		if pos.Filename == "" || pos.Line <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete suppressed diagnostic: %s: [%s] %s", pos, d.Analyzer, d.Message)
		}
		if d.Justification == "" {
			t.Errorf("%s: [%s] suppressed with no written justification", pos, d.Analyzer)
		}
		// internal/ingest never sends to a shard under a lock: shard queues
		// are never closed, so no send needs one. That is a property of the
		// design; a lockhold suppression there would turn it back into an
		// argument.
		if d.Analyzer == "lockhold" && strings.Contains(filepath.ToSlash(pos.Filename), "/internal/ingest/") {
			t.Errorf("%s: internal/ingest must carry no lockhold suppression", pos)
		}
	}
	if suppressed == 0 {
		t.Fatal("no suppressed diagnostics; the repo is known to carry justified suppressions")
	}
}

// TestRepolintBinarySmoke builds the actual cmd/repolint binary and drives
// its one protocol: over ./... — the invocation `make lint` gates on — it
// exits 0 in silence; over a package with a known finding it exits 1 and
// names the analyzer on stderr; handed a flag it exits 2.
func TestRepolintBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/repolint over the whole module")
	}
	bin := filepath.Join(t.TempDir(), "repolint")
	if out, err := exec.Command("go", "build", "-o", bin, repoRoot+"/cmd/repolint").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/repolint: %v\n%s", err, out)
	}
	repolint := func(args ...string) (int, string) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = repoRoot
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("repolint %v: %v", args, err)
		}
		return cmd.ProcessState.ExitCode(), string(out)
	}

	if code, out := repolint("./..."); code != 0 || out != "" {
		t.Errorf("repolint ./... on a clean tree: exit %d, output:\n%s", code, out)
	}

	// Directive validation is not path-scoped, so a package anywhere in the
	// module will do; under testdata/ it stays out of ./... for every other
	// run.
	dir, err := os.MkdirTemp("testdata", "smoke")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	src := "package smoke\n\n//repolint:allow determinism\nvar N = 1\n"
	if err := os.WriteFile(filepath.Join(dir, "smoke.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := repolint("./internal/lint/" + filepath.ToSlash(dir))
	if code != 1 || !strings.Contains(out, "smoke.go:3:") || !strings.Contains(out, "[repolint]") {
		t.Errorf("repolint over an allow directive with no reason: exit %d, want 1 and a [repolint] line at smoke.go:3; output:\n%s", code, out)
	}

	if code, out := repolint("-json", "./..."); code != 2 {
		t.Errorf("repolint -json: exit %d, want 2 (it takes no flags); output:\n%s", code, out)
	}
}

// TestDirectiveValidation: escape hatches without justifications are
// themselves diagnostics, and directives the full suite does not know are
// rejected.
func TestDirectiveValidation(t *testing.T) {
	runCase(t, All(), "directives", "netenergy/internal/synthgen")
}
