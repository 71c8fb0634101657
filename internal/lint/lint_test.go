package lint

import (
	"encoding/json"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
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
// one analyzer, and requires an exact match: every want satisfied, no
// unexpected diagnostics.

// repoRoot is the module root relative to this package.
const repoRoot = "../.."

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// testExports builds the export-data map the testdata packages' imports
// resolve against: the std packages they use plus the real module packages
// (obs, radio) the obscopy and units cases import.
func testExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		pkgs, err := goList(repoRoot, []string{
			"bytes", "context", "encoding/binary", "errors", "fmt", "io",
			"log", "math/rand", "sync", "time",
			"netenergy/internal/obs", "netenergy/internal/radio",
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

// runCase type-checks testdata/src/<dir> under importPath and checks the
// analyzer's diagnostics against the package's want annotations.
func runCase(t *testing.T, a *Analyzer, dir, importPath string) {
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
	diags, err := CheckPackage(fset, pkg.Files, pkg.Types, pkg.Info, []*Analyzer{a})
	if err != nil {
		t.Fatalf("analyze %s: %v", srcDir, err)
	}

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
func runCaseNoWants(t *testing.T, a *Analyzer, dir, importPath string) {
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
	diags, err := CheckPackage(fset, pkg.Files, pkg.Types, pkg.Info, []*Analyzer{a})
	if err != nil {
		t.Fatalf("analyze %s: %v", srcDir, err)
	}
	for _, d := range diags {
		t.Errorf("%s: unexpected out-of-scope diagnostic: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

func TestDeterminism(t *testing.T) {
	// In scope: the fake import path is one of the deterministic pipeline
	// packages, so the wall-clock/rand/map-order rules apply.
	runCase(t, Determinism, "determinism", "netenergy/internal/synthgen")
}

func TestDeterminismOutOfScope(t *testing.T) {
	// The same kind of code under a non-pipeline import path is clean:
	// ingest and obs are wall-clock subsystems by design.
	runCase(t, Determinism, "determinism_out", "netenergy/internal/obsworker")
}

func TestNoalloc(t *testing.T) {
	runCase(t, Noalloc, "noalloc", "netenergy/internal/nalloc")
}

func TestSeverErr(t *testing.T) {
	runCase(t, SeverErr, "severerr", "netenergy/internal/ingest")
}

func TestSeverErrCluster(t *testing.T) {
	runCase(t, SeverErr, "severerr_cluster", "netenergy/internal/cluster")
}

func TestSeverErrOutOfScope(t *testing.T) {
	runCase(t, SeverErr, "severerr_out", "netenergy/internal/flows")
}

func TestSeverErrLZ(t *testing.T) {
	runCase(t, SeverErr, "severerr_lz", "netenergy/internal/lz")
}

func TestSeverErrTrace(t *testing.T) {
	runCase(t, SeverErr, "severerr_trace", "netenergy/internal/trace")
}

func TestWireSize(t *testing.T) {
	runCase(t, WireSize, "wiresize", "netenergy/internal/trace")
}

func TestWireSizeOutOfScope(t *testing.T) {
	// The same unguarded shape outside the decoder packages is clean.
	runCase(t, WireSize, "wiresize_out", "netenergy/internal/analysis")
}

func TestGoExit(t *testing.T) {
	runCase(t, GoExit, "goexit", "netenergy/internal/ingest")
}

func TestGoExitOutOfScope(t *testing.T) {
	// Outside the serving tier the same launches are nobody's business.
	runCaseNoWants(t, GoExit, "goexit", "netenergy/internal/flows")
}

func TestLockHold(t *testing.T) {
	runCase(t, LockHold, "lockhold", "netenergy/internal/ingest")
}

func TestLockHoldOutOfScope(t *testing.T) {
	runCaseNoWants(t, LockHold, "lockhold", "netenergy/internal/flows")
}

func TestUnits(t *testing.T) {
	runCase(t, Units, "units", "netenergy/internal/unitcases")
}

func TestObsCopy(t *testing.T) {
	runCase(t, ObsCopy, "obscopy", "netenergy/internal/obscases")
}

// TestSuiteCleanAtHead is the acceptance gate: the full analyzer suite
// reports zero diagnostics over the repository, so every committed escape
// hatch is annotated and justified.
func TestSuiteCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	diags, fset, err := Run(repoRoot, []string{"./..."}, All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestRepolintBinarySmoke builds and runs the actual cmd/repolint binary
// over ./... — the same invocation `make lint` performs — and requires a
// clean exit.
func TestRepolintBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/repolint over the whole module")
	}
	cmd := exec.Command("go", "run", "./cmd/repolint", "./...")
	cmd.Dir = repoRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cmd/repolint ./... failed: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Errorf("cmd/repolint ./... produced output on a clean tree:\n%s", out)
	}
}

// TestDirectiveValidation: escape hatches without justifications are
// themselves diagnostics, and unknown directives are rejected.
func TestDirectiveValidation(t *testing.T) {
	runCase(t, Determinism, "directives", "netenergy/internal/synthgen")
}

// TestJSONRoundTrip runs `repolint -json` over a package that carries
// suppressed findings and decodes the output back into []lint.Finding: the
// machine-readable archive must round-trip losslessly, keep suppressed
// findings, and carry their justifications.
func TestJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/repolint")
	}
	cmd := exec.Command("go", "run", "./cmd/repolint", "-json", "./internal/ingest/")
	cmd.Dir = repoRoot
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("repolint -json: %v\n%s", err, out)
	}
	var findings []Finding
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("repolint -json ./internal/ingest/ returned no findings; the suppressed goexit/lockhold findings must be archived")
	}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding in -json output: %+v", f)
		}
		if !f.Suppressed {
			t.Errorf("active finding on a clean tree: %+v", f)
		}
		if f.Suppressed && f.Justification == "" {
			t.Errorf("suppressed finding with no justification: %+v", f)
		}
	}
	// Round-trip: re-encoding must reproduce the decoded value.
	re, err := json.Marshal(findings)
	if err != nil {
		t.Fatal(err)
	}
	var again []Finding
	if err := json.Unmarshal(re, &again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(findings, again) {
		t.Error("findings do not round-trip through encoding/json")
	}
}

// TestAuditJustified is the escape-hatch audit: every //repolint: allow or
// ordered directive anywhere in the repo — test files included — must carry
// a written justification.
func TestAuditJustified(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	sups, err := Audit(repoRoot, []string{"./..."})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(sups) == 0 {
		t.Fatal("audit found no //repolint: directives; the repo is known to carry suppressions")
	}
	for _, s := range sups {
		if s.NeedsJustification() && s.Justification == "" {
			t.Errorf("%s:%d: repolint:%s %s has no written justification", s.File, s.Line, s.Directive, s.Analyzer)
		}
		// internal/ingest never sends to a shard under a lock: shard queues
		// are never closed, so no send needs one. That is a property of the
		// design; a lockhold suppression there would turn it back into an
		// argument.
		if s.Analyzer == "lockhold" && strings.Contains(filepath.ToSlash(s.File), "/internal/ingest/") {
			t.Errorf("%s:%d: internal/ingest must carry no lockhold suppression", s.File, s.Line)
		}
	}
}
