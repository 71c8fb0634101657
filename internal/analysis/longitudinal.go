package analysis

import (
	"netenergy/internal/energy"
	"netenergy/internal/radio"
	"netenergy/internal/trace"
)

// WeeklyTrend is the §3.1 longitudinal view: per-week background energy
// across the fleet. The paper reports that "background energy fluctuated by
// up to 60% from week to week throughout the study", obscuring clean
// longitudinal conclusions.
type WeeklyTrend struct {
	// Weeks holds total fleet background energy per week index (week 0 is
	// the first week with traffic).
	Weeks []float64
	// MaxWeekOverWeekChange is the largest relative change between
	// consecutive weeks (0.6 = 60%).
	MaxWeekOverWeekChange float64
}

// Weekly computes the fleet's per-week background energy trend.
func Weekly(devs []*DeviceData) WeeklyTrend {
	perWeek := map[int]float64{}
	minWeek := int(^uint(0) >> 1)
	maxWeek := 0
	for _, d := range devs {
		for _, days := range d.Energy.Ledger.ByAppDay {
			for day, ds := range days {
				w := day / 7
				perWeek[w] += ds.BgEnergy
				if w < minWeek {
					minWeek = w
				}
				if w > maxWeek {
					maxWeek = w
				}
			}
		}
	}
	var res WeeklyTrend
	if len(perWeek) == 0 {
		return res
	}
	for w := minWeek; w <= maxWeek; w++ {
		res.Weeks = append(res.Weeks, perWeek[w])
	}
	// Ignore the (possibly partial) first and last weeks when measuring
	// fluctuation.
	for i := 2; i < len(res.Weeks)-1; i++ {
		prev := res.Weeks[i-1]
		if prev <= 0 {
			continue
		}
		change := res.Weeks[i]/prev - 1
		if change < 0 {
			change = -change
		}
		if change > res.MaxWeekOverWeekChange {
			res.MaxWeekOverWeekChange = change
		}
	}
	return res
}

// NetworkComparison quantifies §3's premise — "we focus primarily on
// cellular traffic as it consumes far more energy than WiFi" — by
// accounting each interface's traffic against its own radio model.
type NetworkComparison struct {
	CellularJ     float64
	WiFiJ         float64
	CellularBytes int64
	WiFiBytes     int64
}

// Ratio returns cellular energy over WiFi energy (0 if no WiFi energy).
func (n NetworkComparison) Ratio() float64 {
	if n.WiFiJ == 0 {
		return 0
	}
	return n.CellularJ / n.WiFiJ
}

// Add folds another comparison (another device's) into n.
func (n *NetworkComparison) Add(o NetworkComparison) {
	n.CellularJ += o.CellularJ
	n.WiFiJ += o.WiFiJ
	n.CellularBytes += o.CellularBytes
	n.WiFiBytes += o.WiFiBytes
}

// compareNetworks builds one device's comparison with one replay per
// interface: res, the replay Load has just made under opts, is the side
// opts.Network names, and only the other interface is replayed here —
// against its own radio model, aggregates only.
func compareNetworks(dt *trace.DeviceTrace, res *energy.Result, opts energy.Options) (NetworkComparison, error) {
	other := opts
	other.KeepPackets = false
	other.Network, other.Radio = trace.NetWiFi, radio.WiFi()
	if opts.Network == trace.NetWiFi {
		other.Network, other.Radio = trace.NetCellular, radio.LTE()
	}
	resO, err := energy.Process(dt, other)
	if err != nil {
		return NetworkComparison{}, err
	}
	cell, wifi := res.Ledger, resO.Ledger
	if opts.Network == trace.NetWiFi {
		cell, wifi = wifi, cell
	}
	out := NetworkComparison{CellularJ: cell.Total, WiFiJ: wifi.Total}
	for _, b := range cell.BytesByApp {
		out.CellularBytes += b
	}
	for _, b := range wifi.BytesByApp {
		out.WiFiBytes += b
	}
	return out, nil
}
