// Package analysis implements the paper's measurement analyses: one
// function per figure and table of the evaluation (Figures 1-6, Table 1)
// plus the headline statistics quoted in the text (84% background energy,
// the first-minute criterion, browser background shares). Each analysis
// consumes DeviceData — the decoded, energy-attributed view of one device
// trace — and aggregates across the fleet.
package analysis

import (
	"fmt"
	"runtime"
	"sync"

	"netenergy/internal/energy"
	"netenergy/internal/flows"
	"netenergy/internal/procstate"
	"netenergy/internal/trace"
)

// DeviceData is the fully loaded view of one device: energy-attributed
// packets, per-app ledgers, the process-state tracker, and the screen
// timeline.
type DeviceData struct {
	Device  string
	Apps    *trace.AppTable
	Tracker *procstate.Tracker
	Energy  *energy.Result
	Flows   []*flows.Flow
	// ScreenOn holds the merged [on, off) screen intervals from the
	// collector's screen events, sorted by start.
	ScreenOn [][2]trace.Timestamp
	Span     [2]trace.Timestamp
	Days     int // observation days covered by the trace span
	// Networks is this device's cellular-vs-WiFi comparison, taken while
	// Load has the raw trace in hand (the pipeline above only accounts one
	// interface).
	Networks NetworkComparison
}

// ScreenOnAt reports whether the screen was on at ts.
func (d *DeviceData) ScreenOnAt(ts trace.Timestamp) bool {
	lo, hi := 0, len(d.ScreenOn)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.ScreenOn[mid][1] <= ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(d.ScreenOn) && d.ScreenOn[lo][0] <= ts
}

// Load builds DeviceData from an in-memory device trace.
func Load(dt *trace.DeviceTrace, opts energy.Options) (*DeviceData, error) {
	res, err := energy.Process(dt, opts)
	if err != nil {
		return nil, fmt.Errorf("analysis: processing %s: %w", dt.Device, err)
	}
	nets, err := compareNetworks(dt, res, opts)
	if err != nil {
		return nil, fmt.Errorf("analysis: processing %s: %w", dt.Device, err)
	}
	tracker := procstate.FromTrace(dt)

	// Screen timeline from RecScreen events.
	var screen [][2]trace.Timestamp
	var onSince trace.Timestamp = -1
	for i := range dt.Records {
		r := &dt.Records[i]
		if r.Type != trace.RecScreen {
			continue
		}
		if r.ScreenOn {
			if onSince < 0 {
				onSince = r.TS
			}
		} else if onSince >= 0 {
			screen = append(screen, [2]trace.Timestamp{onSince, r.TS})
			onSince = -1
		}
	}
	if onSince >= 0 {
		screen = append(screen, [2]trace.Timestamp{onSince, dt.Records[len(dt.Records)-1].TS + 1})
	}

	asm := flows.NewAssembler(flows.DefaultConfig(), res.Conns)
	for i := range res.Packets {
		p := &res.Packets[i]
		asm.Add(flows.PacketInfo{
			TS: p.TS, App: p.App, Conn: p.Conn, Dir: p.Dir,
			Bytes: p.Bytes, State: p.State, Energy: p.Energy,
		})
	}

	span := res.Span
	days := int(span[1].Sub(span[0])/86400) + 1
	if span[1] == 0 && span[0] == 0 {
		days = 0
	}
	return &DeviceData{
		Device:   dt.Device,
		Apps:     dt.Apps,
		Tracker:  tracker,
		Energy:   res,
		Flows:    asm.Flows(),
		ScreenOn: screen,
		Span:     span,
		Days:     days,
		Networks: nets,
	}, nil
}

// LoadFleet loads every device of a generated fleet from disk, one at a
// time.
func LoadFleet(fleet *trace.Fleet, opts energy.Options) ([]*DeviceData, error) {
	var out []*DeviceData
	err := fleet.EachDevice(func(dt *trace.DeviceTrace) error {
		dd, err := Load(dt, opts)
		if err != nil {
			return err
		}
		out = append(out, dd)
		return nil
	})
	return out, err
}

// Workers is how many goroutines LoadAll spreads a fleet over — one per
// core, up to six — and therefore how many core.Run renders its report on.
func Workers() int {
	if par := runtime.GOMAXPROCS(0); par < 6 {
		return par
	}
	return 6
}

// LoadAll loads a slice of in-memory device traces, in parallel (Load is
// pure per device).
func LoadAll(dts []*trace.DeviceTrace, opts energy.Options) ([]*DeviceData, error) {
	out := make([]*DeviceData, len(dts))
	errs := make([]error, len(dts))
	var wg sync.WaitGroup
	sem := make(chan struct{}, Workers())
	for i := range dts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = Load(dts[i], opts)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appID resolves a package name to its table ID on this device; ok=false if
// the app never appears.
func (d *DeviceData) appID(pkg string) (uint32, bool) {
	for i := 0; i < d.Apps.Len(); i++ {
		if d.Apps.Name(uint32(i)) == pkg {
			return uint32(i), true
		}
	}
	return 0, false
}

// MergedLedger returns the fleet-wide ledger (app IDs are comparable across
// devices because the generator interns profiles in a fixed order).
func MergedLedger(devs []*DeviceData) *energy.Ledger {
	ls := make([]*energy.Ledger, len(devs))
	for i, d := range devs {
		ls[i] = d.Energy.Ledger
	}
	return energy.MergeLedgers(ls)
}
