// Command repolint runs the repo's static-analysis suite (internal/lint):
// determinism, severerr, wiresize and lockhold.
//
//	repolint [packages]    load the packages through the go command
//	                       (default ./...) and analyze them
//
// It takes no flags. Every unsuppressed diagnostic goes to stderr as
// "file:line:col: [analyzer] message"; DESIGN.md §8 lists what each
// analyzer examines and the //repolint: directives that suppress them.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strings"

	"netenergy/internal/lint"
)

func main() {
	// One-shot process: the whole-module parse and type-check allocate
	// furiously and almost nothing dies before the process does, so GC
	// cycles are pure overhead. Keep the collector nearly idle unless the
	// caller asked for something specific.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	os.Exit(run(os.Args[1:]))
}

func run(patterns []string) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintf(os.Stderr, "repolint: unknown argument %q\nusage: repolint [packages]   (default ./...; no flags)\n", p)
			return 2
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, fset, err := lint.Run(".", patterns, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 2
	}
	active := 0
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		active++
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if active > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", active)
		return 1
	}
	return 0
}
