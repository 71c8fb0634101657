package ingest

import (
	"sort"
	"strconv"
)

// NodeRing is a consistent-hash ring mapping device IDs onto an arbitrary
// set of named nodes. It is the device→node assignment function of the
// cluster tier, lifted from the per-process shard ring so that the client
// (session routing), the server (redirect decisions) and the aggregator
// (handoff targeting) all compute the same placement from the same member
// list. Placement depends only on the set of node names: adding or removing
// one node relocates only ~1/n of devices, and every holder of the same
// member list agrees on every assignment.
//
// A NodeRing is immutable after construction; membership changes are
// handled by building a new ring over the new live set.
type NodeRing struct {
	hashes []uint64
	owners []string
	nodes  []string // deduplicated, sorted member names
}

// vnodesPerNode smooths the distribution; shared with the shard ring. A
// member's share of the ring is the sum of vnodesPerNode uniform arcs, so
// its relative spread is about sqrt((n-1)/(n*vnodesPerNode)): 256 keeps
// every member of an 8-way ring within ~6 % of its fair share at one
// standard deviation (TestPlacementBalance states the bound).
const vnodesPerNode = 256

// PlacementID names the placement function — placeHash, the vnode key
// scheme and vnodesPerNode — as the first 16 hex digits of the SHA-256
// TestPlacementGolden pins. Members serve it on /healthz, and a cluster
// prober refuses a member whose id differs: two members that place the
// same device differently would bounce it between them forever.
const PlacementID = "3048bdcec0d35f7d"

// placeHash is the placement hash of ring points and device lookups:
// FNV-64a over the bytes of s, then murmur3's fmix64 finaliser. Bare
// FNV-64a barely moves its high bits when only a name's last characters
// do, and a ring orders its points by the high bits, so without the
// finaliser sequential names (dev-0001, st-u03-r17) pile onto a few arcs.
func placeHash(s string) uint64 {
	h := hash64(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewNodeRing builds a ring over the given node names. Duplicates are
// ignored; the input order is irrelevant (names are sorted first, so two
// rings over the same set are identical). An empty ring is valid: Owner
// returns "".
func NewNodeRing(nodes []string) *NodeRing {
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &NodeRing{
		hashes: make([]uint64, 0, len(uniq)*vnodesPerNode),
		owners: make([]string, 0, len(uniq)*vnodesPerNode),
		nodes:  uniq,
	}
	type point struct {
		h uint64
		n string
	}
	pts := make([]point, 0, len(uniq)*vnodesPerNode)
	for _, n := range uniq {
		for v := 0; v < vnodesPerNode; v++ {
			pts = append(pts, point{placeHash(n + "-" + strconv.Itoa(v)), n})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].n < pts[j].n // deterministic on (vanishingly rare) collisions
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.n)
	}
	return r
}

// Owner returns the node owning device, or "" on an empty ring.
func (r *NodeRing) Owner(device string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	i := r.search(device)
	return r.owners[i]
}

// Prefer returns every node in ring-successor order starting from the
// device's owner, each exactly once: the client-side failover order. If the
// owner is unreachable the next entry is exactly the node that inherits the
// device when the owner is declared dead, so walking this list converges
// with the server-side view.
func (r *NodeRing) Prefer(device string) []string {
	if len(r.hashes) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i, n := r.search(device), 0; n < len(r.hashes) && len(out) < len(r.nodes); n++ {
		owner := r.owners[(i+n)%len(r.hashes)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}

// search returns the index of the first ring point at or clockwise after
// the device's hash.
func (r *NodeRing) search(device string) int {
	h := placeHash(device)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}
