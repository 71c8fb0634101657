package cluster

import (
	"sync"

	"netenergy/internal/ingest"
)

// View is one node's placement function: the live membership projected
// onto the shared NodeRing, rebuilt lazily whenever the prober's epoch
// moves. Its Route method plugs directly into ingest.Config.Route, giving
// the server its redirect decisions without ingest ever importing cluster.
//
// The ring is keyed by stream addresses — the one identifier clients and
// servers both hold — and always includes this node's own address even if
// the prober has (transiently) declared it dead: a node never redirects a
// device to a ring it has excluded itself from, it just keeps serving
// until the operator stops it.
type View struct {
	self   Member
	prober *Prober

	mu    sync.Mutex
	epoch uint64
	ring  *ingest.NodeRing
}

// NewView builds the placement view for self over the prober's live set.
func NewView(self Member, p *Prober) *View {
	return &View{self: self, prober: p}
}

// Route reports the stream address owning device under the current live
// ring and whether that owner is this node. It is safe for concurrent use
// by every connection handler.
func (v *View) Route(device string) (addr string, self bool) {
	owner := v.currentRing().Owner(device)
	return owner, owner == v.self.Stream
}

func (v *View) currentRing() *ingest.NodeRing {
	e := v.prober.Epoch()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.ring == nil || e != v.epoch {
		live := v.prober.Live()
		addrs := make([]string, 0, len(live)+1)
		for _, m := range live {
			addrs = append(addrs, m.Stream)
		}
		addrs = append(addrs, v.self.Stream) // NodeRing dedups
		v.ring = ingest.NewNodeRing(addrs)
		v.epoch = e
	}
	return v.ring
}
