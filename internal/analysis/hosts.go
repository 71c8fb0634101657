package analysis

import (
	"sort"

	"netenergy/internal/appproto"
)

// HostStat aggregates traffic to one destination host.
type HostStat struct {
	Host     string
	Category appproto.Category
	Bytes    int64
	Energy   float64
	Requests int
}

// HostBreakdownResult attributes one app's traffic to destination hosts
// and host categories — the §4.1 validation that leaked browser traffic
// includes "ad and analytics content".
type HostBreakdownResult struct {
	App        string
	BgOnly     bool
	Hosts      []HostStat                     // descending by energy
	ByCategory map[appproto.Category]HostStat // keyed aggregates
	// Unattributed counts bytes whose request host could not be parsed
	// (response packets, mid-flow segments, truncated headers).
	UnattributedBytes int64
}

// HostBreakdown computes the per-host attribution for pkg across the
// fleet. With bgOnly, only packets in background process states count —
// the leak-traffic view. Bytes and energy of a burst are attributed to the
// host of the most recent request seen on the same flow.
func HostBreakdown(devs []*DeviceData, pkg string, bgOnly bool) HostBreakdownResult {
	res := HostBreakdownResult{
		App: pkg, BgOnly: bgOnly,
		ByCategory: map[appproto.Category]HostStat{},
	}
	hostAgg := map[string]*HostStat{}
	for _, d := range devs {
		app, ok := d.appID(pkg)
		if !ok {
			continue
		}
		// Connection id -> current host, so responses inherit the request's
		// host attribution.
		flowHost := make([]string, len(d.Energy.Conns))
		for i := range d.Energy.Packets {
			p := &d.Energy.Packets[i]
			if p.App != app {
				continue
			}
			if bgOnly && !p.State.IsBackground() {
				continue
			}
			host := p.Host
			isReq := host != ""
			if isReq {
				flowHost[p.Conn] = host
			} else {
				host = flowHost[p.Conn]
			}
			if host == "" {
				res.UnattributedBytes += int64(p.Bytes)
				continue
			}
			hs := hostAgg[host]
			if hs == nil {
				hs = &HostStat{Host: host, Category: appproto.Classify(host)}
				hostAgg[host] = hs
			}
			hs.Bytes += int64(p.Bytes)
			hs.Energy += p.Energy
			if isReq {
				hs.Requests++
			}
		}
	}
	// Fold in sorted host order: ByCategory accumulates floats, and float
	// addition is order-sensitive in the last bits, so map order here would
	// leak into the reported per-category energy.
	hostKeys := make([]string, 0, len(hostAgg))
	//repolint:ordered collection order is irrelevant: keys are sorted before use
	for host := range hostAgg {
		hostKeys = append(hostKeys, host)
	}
	sort.Strings(hostKeys)
	for _, host := range hostKeys {
		hs := hostAgg[host]
		res.Hosts = append(res.Hosts, *hs)
		agg := res.ByCategory[hs.Category]
		agg.Category = hs.Category
		agg.Bytes += hs.Bytes
		agg.Energy += hs.Energy
		agg.Requests += hs.Requests
		res.ByCategory[hs.Category] = agg
	}
	sort.Slice(res.Hosts, func(i, j int) bool {
		if res.Hosts[i].Energy != res.Hosts[j].Energy {
			return res.Hosts[i].Energy > res.Hosts[j].Energy
		}
		return res.Hosts[i].Host < res.Hosts[j].Host
	})
	return res
}

// ThirdPartyShare returns the fraction of attributed energy going to ad
// and analytics hosts.
func (r HostBreakdownResult) ThirdPartyShare() float64 {
	var third, total float64
	for cat, hs := range r.ByCategory {
		total += hs.Energy
		if cat == appproto.CatAds || cat == appproto.CatAnalytics {
			third += hs.Energy
		}
	}
	if total == 0 {
		return 0
	}
	return third / total
}
