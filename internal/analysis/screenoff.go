package analysis

import "netenergy/internal/stats"

// ScreenOffResult is the screen-off traffic characterisation (the Huang et
// al. IMC'12 view the paper builds on): how much traffic and energy flows
// while the screen is off, and which apps drive it.
type ScreenOffResult struct {
	OffBytes  int64
	OnBytes   int64
	OffEnergy float64
	OnEnergy  float64
	// TopOffApps ranks apps by screen-off energy, descending.
	TopOffApps []HungryApp
}

// OffByteFraction returns the share of bytes moved with the screen off.
func (r ScreenOffResult) OffByteFraction() float64 {
	total := r.OffBytes + r.OnBytes
	if total == 0 {
		return 0
	}
	return float64(r.OffBytes) / float64(total)
}

// OffEnergyFraction returns the share of energy spent with the screen off.
func (r ScreenOffResult) OffEnergyFraction() float64 {
	total := r.OffEnergy + r.OnEnergy
	if total == 0 {
		return 0
	}
	return r.OffEnergy / total
}

// ScreenOff computes the screen-off characterisation across the fleet.
func ScreenOff(devs []*DeviceData, topK int) ScreenOffResult {
	var res ScreenOffResult
	offByApp := map[string]*HungryApp{}
	for _, d := range devs {
		screen := newScreenCursor(d)
		apps := newAppMemo(func(app uint32) *HungryApp {
			name := d.Apps.Name(app)
			h := offByApp[name]
			if h == nil {
				h = &HungryApp{App: name}
				offByApp[name] = h
			}
			return h
		})
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if screen.at(p.TS) {
				res.OnBytes += int64(p.Bytes)
				res.OnEnergy += p.Energy
				continue
			}
			res.OffBytes += int64(p.Bytes)
			res.OffEnergy += p.Energy
			h := apps.get(p.App)
			h.Bytes += int64(p.Bytes)
			h.Energy += p.Energy
		}
	}
	rank := map[string]float64{}
	for name, h := range offByApp {
		rank[name] = h.Energy
	}
	for _, kv := range stats.TopK(rank, topK) {
		h := offByApp[kv.Key]
		if h.Bytes > 0 {
			h.JPerMB = h.Energy / (float64(h.Bytes) / 1e6)
		}
		res.TopOffApps = append(res.TopOffApps, *h)
	}
	return res
}
