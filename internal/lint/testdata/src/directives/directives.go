// Test fixture for directive validation: every escape hatch needs a
// written justification, and unknown directives are rejected outright.
// Checked under a deterministic-pipeline import path so the suppressions
// below have real diagnostics to absorb.
package synthgen

import "time"

var sink []int

func MissingJustifications(m map[string]int) {
	//repolint:allow determinism // want "repolint:allow determinism needs a written justification"
	_ = time.Now()

	//repolint:ordered // want "repolint:ordered needs a written justification"
	for k := range m {
		sink = append(sink, len(k))
	}
}

func WellFormed(m map[string]int) {
	//repolint:allow determinism fixture: timing is local telemetry, never serialized
	_ = time.Now()

	//repolint:ordered fixture: the caller sorts sink before use
	for k := range m {
		sink = append(sink, len(k))
	}
}

//repolint:allow nosuchanalyzer the reason is recorded but the name is wrong // want "unknown analyzer"

//repolint:bogus scratch note // want "unknown repolint directive"

// Directives of analyzers that were deleted are unknown too, so a stale
// annotation cannot outlive its analyzer.

//repolint:noalloc // want "unknown repolint directive \"noalloc\""

//repolint:allow goexit closed by Shutdown // want "unknown analyzer \"goexit\""
