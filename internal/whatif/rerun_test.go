package whatif

import (
	"reflect"
	"testing"

	"netenergy/internal/analysis"
	"netenergy/internal/appmodel"
	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
)

// rerunResult is every float the kill-policy tables and the report's two
// shares are summed into, for one pass over a fleet.
type rerunResult struct {
	Sweep   []SweepPoint
	PerUser []float64
	Table   []AppResult
	BgShare []float64
	Third   float64
}

// TestRerunsBitIdentical: rerunning the what-if sums and the report's shares
// over the same fleet must give the same bits every time. Each of them folds
// floats over map entries; a float sum taken in Go's randomized map order
// differs in the last place from run to run, so they fold in ascending key
// order.
func TestRerunsBitIdentical(t *testing.T) {
	devs, err := analysis.LoadAll(synthgen.GenerateInMemory(synthgen.Small(4, 14)), energy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []string{appmodel.PkgChrome, appmodel.PkgFacebook, appmodel.PkgWeibo, appmodel.PkgGmail}
	run := func() rerunResult {
		r := rerunResult{
			Sweep:   SweepThresholds(devs, 7),
			PerUser: PerUserSavings(devs, 3),
			Table:   Evaluate(devs, pkgs, nil, 3),
			Third:   analysis.HostBreakdown(devs, appmodel.PkgChrome, false).ThirdPartyShare(),
		}
		for _, sb := range analysis.StateBreakdowns(devs, pkgs) {
			r.BgShare = append(r.BgShare, sb.BackgroundShare())
		}
		return r
	}
	want := run()
	for i := 1; i < 50; i++ {
		got := run()
		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"SweepThresholds", got.Sweep, want.Sweep},
			{"PerUserSavings", got.PerUser, want.PerUser},
			{"Evaluate", got.Table, want.Table},
			{"BackgroundShare", got.BgShare, want.BgShare},
			{"ThirdPartyShare", got.Third, want.Third},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("run %d: %s differs from run 0:\n got %+v\nwant %+v", i, c.name, c.got, c.want)
			}
		}
		if t.Failed() {
			return
		}
	}
}
