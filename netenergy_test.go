package netenergy_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"

	"netenergy"
)

func TestFacadeRun(t *testing.T) {
	study, err := netenergy.Run(netenergy.SmallConfig(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	h := study.Headline()
	if h.TotalEnergyJ <= 0 {
		t.Error("no energy")
	}
	var buf bytes.Buffer
	if err := netenergy.WriteReport(study, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("report missing Table 1")
	}
}

func TestFacadeGenerateAndOpen(t *testing.T) {
	dir := t.TempDir()
	if err := netenergy.GenerateFleet(netenergy.SmallConfig(2, 2), dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.metr"))
	if err != nil || len(files) != 2 {
		t.Fatalf("fleet files: %v %v", files, err)
	}
	study, err := netenergy.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := study.Headline().TotalEnergyJ; got <= 0 {
		t.Errorf("energy = %v", got)
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := netenergy.DefaultConfig()
	if cfg.Users != 20 || cfg.Days != 126 {
		t.Errorf("default config = %+v", cfg)
	}
	small := netenergy.SmallConfig(3, 4)
	if small.Users != 3 || small.Days != 4 {
		t.Errorf("small config = %+v", small)
	}
	if small.Seed != cfg.Seed {
		t.Error("small config should inherit the default seed")
	}
}

// TestScriptsNameLiveCode: every ./internal/... or ./cmd/... path the
// Makefile and scripts/*.sh name holds Go files, and every test, benchmark
// or fuzz target their go test lines name with -run, -bench or -fuzz is
// declared in a _test.go file of the package that line tests. go test
// exits 0 when such a pattern matches nothing, so a renamed fuzz target or a
// deleted benchmark would otherwise leave a target that runs nothing and
// passes. Alternations are read name by name: "BenchmarkFin(Durable|Volatile)$"
// must find both.
func TestScriptsNameLiveCode(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join("scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	// The go test flags that take a name pattern, and the functions each
	// one matches.
	kinds := map[string]*regexp.Regexp{
		"-run":   regexp.MustCompile(`^(Test|Fuzz|Example)`),
		"-bench": regexp.MustCompile(`^Benchmark`),
		"-fuzz":  regexp.MustCompile(`^Fuzz`),
	}
	checked := 0
	for _, file := range append([]string{"Makefile"}, scripts...) {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if file == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$")
		}
		for _, ln := range commandLines(text) {
			words := shellWords(ln.text)
			for _, w := range words {
				if (strings.HasPrefix(w, "./internal/") || strings.HasPrefix(w, "./cmd/")) && len(goDirs(t, w)) == 0 {
					t.Errorf("%s:%d: %s holds no Go files", file, ln.n, w)
				}
			}
			args := goTestArgs(words)
			if args == nil {
				continue
			}
			var pkgs, declared []string
			for _, w := range args {
				if w == "." || strings.HasPrefix(w, "./") {
					pkgs = append(pkgs, w)
				}
			}
			if pkgs == nil {
				pkgs = []string{"."}
			}
			for _, p := range pkgs {
				for _, dir := range goDirs(t, p) {
					declared = append(declared, testFuncs(t, dir)...)
				}
			}
			for i, w := range args {
				flag, pattern, inline := strings.Cut(w, "=")
				kind, ok := kinds[flag]
				if !ok || !inline && i+1 == len(args) {
					continue
				}
				if !inline {
					pattern = args[i+1]
				}
				for _, name := range patternNames(t, pattern) {
					checked++
					re := regexp.MustCompile(name)
					if !slices.ContainsFunc(declared, func(d string) bool { return kind.MatchString(d) && re.MatchString(d) }) {
						t.Errorf("%s:%d: %s %s matches no function in %s", file, ln.n, flag, name, strings.Join(pkgs, " "))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz name read from the Makefile or scripts")
	}
}

type commandLine struct {
	n    int // line number of its first physical line
	text string
}

// commandLines joins backslash-continued lines and drops comment lines.
func commandLines(text string) []commandLine {
	var out []commandLine
	var cur strings.Builder
	start := 0
	for i, l := range strings.Split(text, "\n") {
		if cur.Len() == 0 {
			start = i + 1
			if strings.HasPrefix(strings.TrimSpace(l), "#") {
				continue
			}
		}
		if body, ok := strings.CutSuffix(l, "\\"); ok {
			cur.WriteString(body + " ")
			continue
		}
		cur.WriteString(l)
		out = append(out, commandLine{start, cur.String()})
		cur.Reset()
	}
	return out
}

// shellWords splits a command line into words with their quotes dropped, up
// to a comment. The lines it reads quote only single words.
func shellWords(s string) []string {
	words := strings.Fields(s)
	if end := slices.IndexFunc(words, func(w string) bool { return strings.HasPrefix(w, "#") }); end >= 0 {
		words = words[:end]
	}
	for i, w := range words {
		words[i] = strings.Trim(w, `'"`)
	}
	return words
}

// goTestArgs returns the arguments of the line's go test command, up to the
// end of that command, or nil when the line runs no go test.
func goTestArgs(words []string) []string {
	for i := 0; i+1 < len(words); i++ {
		if (words[i] == "go" || words[i] == "$(GO)") && words[i+1] == "test" {
			args := words[i+2:]
			if end := slices.IndexFunc(args, func(w string) bool { return w == "|" || w == "||" || w == "&&" || w == ";" }); end >= 0 {
				args = args[:end]
			}
			return args
		}
	}
	return nil
}

// goDirs returns the directories a package path names that hold Go files:
// the directory itself, or for "dir/..." every one under it.
func goDirs(t *testing.T, path string) []string {
	t.Helper()
	root, all := strings.CutSuffix(strings.TrimSuffix(path, "/"), "/...")
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (!all || d.Name() == "testdata"):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(p, ".go") && !slices.Contains(dirs, filepath.Dir(p)):
			dirs = append(dirs, filepath.Dir(p))
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return dirs
}

var testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)

// testFuncs returns the test, benchmark, fuzz and example functions
// declared in dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncDecl.FindAllSubmatch(b, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}

// patternNames spells a go test name pattern out into the test, benchmark
// and fuzz names it is made of, each as a regexp with the pattern's anchors:
// "^BenchmarkFin(Durable|Volatile)$" gives "^BenchmarkFinDurable$" and
// "^BenchmarkFinVolatile$". A pattern that is not a finite set of such
// names (".", "^$", "NONE") names none.
func patternNames(t *testing.T, pattern string) []string {
	t.Helper()
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		t.Fatalf("pattern %q: %v", pattern, err)
	}
	alts, _ := expand(re)
	return slices.DeleteFunc(alts, func(a string) bool {
		return !testFuncName.MatchString(strings.TrimPrefix(a, "^"))
	})
}

var testFuncName = regexp.MustCompile(`^(Test|Benchmark|Fuzz)`)

// expand lists every string a regexp built of literals, anchors,
// alternations and small character classes matches, as regexps; false for
// any other.
func expand(re *syntax.Regexp) ([]string, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		return []string{regexp.QuoteMeta(string(re.Rune))}, true
	case syntax.OpEmptyMatch:
		return []string{""}, true
	case syntax.OpBeginText, syntax.OpBeginLine:
		return []string{"^"}, true
	case syntax.OpEndText, syntax.OpEndLine:
		return []string{"$"}, true
	case syntax.OpCapture:
		return expand(re.Sub[0])
	case syntax.OpCharClass: // the parser folds "TestA|TestB" into "Test[AB]"
		var out []string
		for i := 0; i+1 < len(re.Rune); i += 2 {
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				if out = append(out, regexp.QuoteMeta(string(r))); len(out) > 8 {
					return nil, false
				}
			}
		}
		return out, true
	case syntax.OpAlternate:
		var out []string
		for _, sub := range re.Sub {
			alts, ok := expand(sub)
			if !ok {
				return nil, false
			}
			out = append(out, alts...)
		}
		return out, true
	case syntax.OpConcat:
		out := []string{""}
		for _, sub := range re.Sub {
			alts, ok := expand(sub)
			if !ok {
				return nil, false
			}
			var next []string
			for _, a := range out {
				for _, b := range alts {
					next = append(next, a+b)
				}
			}
			out = next
		}
		return out, true
	}
	return nil, false
}
