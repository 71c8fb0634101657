package ingest

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func ringDevices(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dev-%04d", i)
	}
	return out
}

// TestNodeRingDeterministic: placement must depend only on the SET of node
// names — input order and duplicates are irrelevant, so every holder of the
// same member list (client, server, aggregator) agrees on every assignment.
func TestNodeRingDeterministic(t *testing.T) {
	a := NewNodeRing([]string{"h1:9009", "h2:9009", "h3:9009"})
	b := NewNodeRing([]string{"h3:9009", "h1:9009", "h2:9009", "h1:9009", ""})
	if got, want := fmt.Sprint(a.nodes), fmt.Sprint(b.nodes); got != want {
		t.Fatalf("node sets differ: %s vs %s", got, want)
	}
	for _, dev := range ringDevices(500) {
		if a.Owner(dev) != b.Owner(dev) {
			t.Fatalf("device %s: owner %s vs %s", dev, a.Owner(dev), b.Owner(dev))
		}
	}
}

// TestNodeRingRelocation: removing one node must relocate exactly that
// node's devices and nothing else — the property the checkpoint handoff
// protocol relies on (survivors keep their own devices, the dead node's
// devices land on their ring successors).
func TestNodeRingRelocation(t *testing.T) {
	nodes := []string{"h1:9009", "h2:9009", "h3:9009", "h4:9009", "h5:9009"}
	full := NewNodeRing(nodes)
	shrunk := NewNodeRing(nodes[1:]) // h1 removed

	devs := ringDevices(2000)
	var moved int
	for _, dev := range devs {
		before, after := full.Owner(dev), shrunk.Owner(dev)
		switch {
		case before == nodes[0]:
			if after == nodes[0] {
				t.Fatalf("device %s still owned by removed node", dev)
			}
		case before != after:
			moved++
			t.Errorf("device %s moved %s -> %s without its owner dying", dev, before, after)
		}
	}
	if moved != 0 {
		t.Fatalf("%d devices relocated off surviving nodes", moved)
	}
}

// TestNodeRingPrefer: the preference order must start at the owner, cover
// every node exactly once, and its second entry must be exactly the node
// that inherits the device when the owner is removed — that is what makes
// the client's failover walk converge with the server-side ring.
func TestNodeRingPrefer(t *testing.T) {
	nodes := []string{"h1:9009", "h2:9009", "h3:9009", "h4:9009"}
	r := NewNodeRing(nodes)
	for _, dev := range ringDevices(300) {
		pref := r.Prefer(dev)
		if len(pref) != len(nodes) {
			t.Fatalf("device %s: prefer has %d entries, want %d", dev, len(pref), len(nodes))
		}
		if pref[0] != r.Owner(dev) {
			t.Fatalf("device %s: prefer[0] = %s, owner = %s", dev, pref[0], r.Owner(dev))
		}
		seen := map[string]bool{}
		for _, n := range pref {
			if seen[n] {
				t.Fatalf("device %s: node %s repeated in prefer order", dev, n)
			}
			seen[n] = true
		}
		// Remove the owner: the new owner must be the old second choice.
		var rest []string
		for _, n := range nodes {
			if n != pref[0] {
				rest = append(rest, n)
			}
		}
		if got := NewNodeRing(rest).Owner(dev); got != pref[1] {
			t.Fatalf("device %s: inheritor %s, prefer[1] %s", dev, got, pref[1])
		}
	}
}

func TestNodeRingEmpty(t *testing.T) {
	r := NewNodeRing(nil)
	if got := r.Owner("dev"); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
	if got := r.Prefer("dev"); got != nil {
		t.Fatalf("empty ring prefer = %v", got)
	}
}

// TestShardRingMatchesNodeRing: the per-process shard ring is the NodeRing
// under synthetic shard names, so shard and node placement are one
// function. (No checkpoint stores a placement: restore re-places every
// device through the current ring, so the keys are free to change —
// TestPlacementGolden is what keeps them from changing by accident.)
func TestShardRingMatchesNodeRing(t *testing.T) {
	names := []string{"shard-0", "shard-1", "shard-2"}
	sr := newRing(3)
	nr := NewNodeRing(names)
	for _, dev := range ringDevices(500) {
		want := fmt.Sprintf("shard-%d", sr.shard(dev))
		if got := nr.Owner(dev); got != want {
			t.Fatalf("device %s: shard ring %s, node ring %s", dev, want, got)
		}
	}
}

// placementFamilies returns n names from each family real devices are named
// by: the benchmark's stream and session pools exactly as bench/harness.go
// replica forms them (8 and 32 base users, replicas from 1), sequential
// dev-%04d, 15-digit IMEI-like digit strings and version-4 UUIDs. The last
// two come from a fixed splitmix64 stream, so every run draws the same names.
func placementFamilies(n int) [][]string {
	x := uint64(20151028)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	fams := make([][]string, 5)
	for i := 0; i < n; i++ {
		a, b := next(), next()
		fams[0] = append(fams[0], fmt.Sprintf("st-u%02d-r%d", i%8, i/8+1))
		fams[1] = append(fams[1], fmt.Sprintf("se-u%02d-r%d", i%32, i/32+1))
		fams[2] = append(fams[2], fmt.Sprintf("dev-%04d", i))
		fams[3] = append(fams[3], fmt.Sprintf("35%013d", next()%1e13))
		fams[4] = append(fams[4], fmt.Sprintf("%08x-%04x-%04x-%04x-%012x",
			a>>32, a>>16&0xffff, a&0x0fff|0x4000, b>>48&0x3fff|0x8000, b&0xffffffffffff))
	}
	return fams
}

// TestPlacementBalance states how evenly placement spreads each name
// family: over n members, the busiest holds at most bound(n) times the
// mean. It covers the shard ring and a cluster ring of host:port members.
//
// The bound is derived from the vnode count, not fitted to what the ring
// happens to do. The n*V ring points (V = vnodesPerNode) cut the circle
// into uniform spacings, so one member's share is Beta(V, (n-1)V): relative
// standard deviation sqrt((n-1)/(nV+1)). Hashing M names onto those fixed
// shares adds a binomial sqrt((n-1)/M). The bound is the mean plus three of
// the combined deviations: at V = 256 and M = 4096, 1.14, 1.18 and 1.22 for
// 2, 4 and 8 members. Where ingest runs — one shard per core, 2 to 4 cores
// — it is also capped at 1.2 whatever V is: more than that idles a fifth
// of a core.
func TestPlacementBalance(t *testing.T) {
	const names = 4096
	fams := placementFamilies(names)
	for _, n := range []int{2, 4, 8} {
		bound := 1 + 3*math.Sqrt(float64(n-1)/float64(n*vnodesPerNode+1)+float64(n-1)/names)
		if n <= 4 {
			bound = math.Min(bound, 1.2)
		}
		hosts := make([]string, n)
		for i := range hosts {
			hosts[i] = fmt.Sprintf("10.0.0.%d:9009", i+1)
		}
		shards, nodes := newRing(n), NewNodeRing(hosts)
		for _, fam := range fams {
			perShard, perNode := make([]int, n), map[string]int{}
			for _, dev := range fam {
				s := shards.shard(dev)
				if s < 0 || s >= n {
					t.Fatalf("%s: shard %d out of range [0, %d)", dev, s, n)
				}
				perShard[s]++
				perNode[nodes.Owner(dev)]++
			}
			busiest := 0
			for i := 0; i < n; i++ {
				busiest = max(busiest, perShard[i], perNode[hosts[i]])
			}
			if ratio := float64(busiest) * float64(n) / names; ratio > bound {
				t.Errorf("%d members, %s...: busiest holds %.3f x the mean, bound %.3f (shards %v, nodes %v)",
					n, fam[0], ratio, bound, perShard, perNode)
			}
		}
	}
}

// placementPin is the SHA-256 of renderPlacement: which shard of 2, 4 and 8
// and which of three cluster members each name in placementFamilies(64)
// lands on, then a digest of every point of those four rings. It is
// the placement function, pinned the SNIPPETS.md krpc way — the hex string
// is the test — so placement never moves by accident: a changed hash moves
// names, a changed vnode key moves a ring digest even when no listed name
// moves. testdata/placement.golden holds the rendering only so a failure
// can name the first row that moved. Moving placement on purpose means a
// new file, a new pin, a new PlacementID (its first 16 hex digits), and a
// whole-cluster restart (DESIGN.md section 10).
const placementPin = "3048bdcec0d35f7de8a73b27026ba3131d9a433dbc3e900755e34c9c428cc3ad"

func renderPlacement() string {
	r2, r4, r8 := newRing(2), newRing(4), newRing(8)
	nr := NewNodeRing([]string{"10.0.0.1:9009", "10.0.0.2:9009", "10.0.0.3:9009"})
	var b strings.Builder
	for _, fam := range placementFamilies(64) {
		for _, dev := range fam {
			fmt.Fprintf(&b, "%s %d %d %d %s\n", dev, r2.shard(dev), r4.shard(dev), r8.shard(dev), nr.Owner(dev))
		}
	}
	for _, r := range []*NodeRing{r2.nr, r4.nr, r8.nr, nr} {
		h := sha256.New()
		for i, p := range r.hashes {
			fmt.Fprintf(h, "%016x %s\n", p, r.owners[i])
		}
		fmt.Fprintf(&b, "ring %s %x\n", strings.Join(r.nodes, ","), h.Sum(nil)[:8])
	}
	return b.String()
}

func TestPlacementGolden(t *testing.T) {
	got := renderPlacement()
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != placementPin {
		want, err := os.ReadFile("testdata/placement.golden")
		if err != nil {
			t.Fatal(err)
		}
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < max(len(wl), len(gl)); i++ {
			w, g := "(none)", "(none)"
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Fatalf("placement moved: sha256 %s, pinned %s\nfirst differing row %d:\n  want %s\n  got  %s",
					sum, placementPin, i+1, w, g)
			}
		}
		t.Fatalf("placement moved: sha256 %s, pinned %s; testdata/placement.golden already renders the new placement, so pin its sha256", sum, placementPin)
	}
	if PlacementID != placementPin[:16] {
		t.Errorf("PlacementID = %s, want the pin's first 16 hex digits %s", PlacementID, placementPin[:16])
	}
	// The segment file-name suffix stays bare FNV-64a: files on disk keep
	// their names across the placement change.
	for in, want := range map[string]string{
		strings.Repeat("d", 200): "dddddddddddddddddddddddddddddddddddddddd+072b04fe506fbce5",
		"":                       "+cbf29ce484222325",
	} {
		if got := sanitizeSegmentName(in); got != want {
			t.Errorf("sanitizeSegmentName(%q) = %q, want %q", in, got, want)
		}
	}
}
