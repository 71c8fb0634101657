package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the fixed-seed reproducibility contract (PAPER §3,
// ROADMAP "bit-deterministic pipeline") on the packages whose output feeds
// the headline artifacts: no wall clock, no global math/rand, and no map
// iteration whose order can reach an output or serialization call.
//
// Escape hatches: //repolint:ordered on a map-range loop asserts the loop
// is order-insensitive (or intentionally unordered) with a written reason;
// //repolint:allow determinism covers the other checks (e.g. telemetry
// timing that never reaches an artifact).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/time.Since, global math/rand, and order-sensitive " +
		"map ranges in the deterministic pipeline packages",
	Run: runDeterminism,
}

// deterministicPkgs is the scope: the synthetic generator, the models it
// drives, the trace codec, the analyzers and the study driver. ingest and
// obs are deliberately out: they are wall-clock subsystems whose outputs
// are reconciled against the deterministic pipeline by the golden harness.
var deterministicPkgs = map[string]bool{
	"netenergy/internal/synthgen":  true,
	"netenergy/internal/appmodel":  true,
	"netenergy/internal/usermodel": true,
	"netenergy/internal/trace":     true,
	"netenergy/internal/analysis":  true,
	"netenergy/internal/whatif":    true,
	"netenergy/internal/core":      true,
	"netenergy/internal/tsq":       true,
}

// seededRandCtors are the only math/rand package-level functions allowed in
// deterministic code: constructors that take an explicit seeded source.
// Everything else at package level draws from the global, racy, time-seeded
// generator.
var seededRandCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *rand.Rand; cannot reach the global state
	"NewPCG":     true, // math/rand/v2 explicit-seed source
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call to the package-level function or method it
// invokes, or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			pass.Reportf(call.Pos(),
				"time.%s in deterministic package %s: fixed-seed runs must not read the wall clock",
				fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on an explicit *rand.Rand are fine
		}
		if seededRandCtors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(),
			"global %s.%s in deterministic package %s: use internal/rng or an explicit rand.New(rand.NewSource(seed))",
			fn.Pkg().Name(), fn.Name(), pass.Pkg.Path())
	}
}

// checkMapRange flags `range m` over a map when the loop body emits
// per-iteration output whose order the map does not define: an append to a
// slice, a write/print/encode call, or a channel send. Bodies that only
// fold into other sinks (sums, map writes, max/min) pass. Only integer sums
// are order-insensitive: a float sum taken in map order can differ in the
// last place from run to run, and this check does not tell the two apart,
// so a float fold over a map must range over sorted keys by hand. A loop
// that is order-insensitive for a deeper reason (e.g. the slice is sorted
// afterwards) carries //repolint:ordered with the reason.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if pass.HasDirective(rng.Pos(), "ordered") {
		return
	}
	if sink := orderSensitiveSink(pass, rng.Body); sink != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order reaches %s: emit in sorted order or annotate //repolint:ordered with why order cannot matter",
			sink)
	}
}

// orderSensitiveSink scans a loop body for a statement whose effect depends
// on iteration order, returning a short description of the first one.
func orderSensitiveSink(pass *Pass, body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
			return false
		case *ast.CallExpr:
			if name, ok := orderedSinkCall(pass, n); ok {
				sink = name
				return false
			}
		}
		return true
	})
	return sink
}

// orderedSinkPrefixes are name families that emit or accumulate in call
// order: sequential writers, printers, encoders, and append-style helpers
// (appendUvarint, AppendBinary, binary.AppendVarint, ...).
var orderedSinkPrefixes = []string{
	"Write", "Print", "Fprint", "Encode", "Marshal", "Append", "append",
}

func orderedSinkCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	// The append builtin grows a sequence in iteration order.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
			return "an append (sequence grows in map order)", true
		}
	}
	if fn := calleeFunc(pass, call); fn != nil {
		for _, prefix := range orderedSinkPrefixes {
			if strings.HasPrefix(fn.Name(), prefix) {
				return "a " + fn.Name() + " call (emits in map order)", true
			}
		}
	}
	return "", false
}
