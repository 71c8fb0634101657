package ingest

import (
	"sort"
	"strconv"
)

// NodeRing is a consistent-hash ring mapping device IDs onto an arbitrary
// set of named nodes; the server's shard ring is one over "shard-<i>" names.
// Placement depends only on the set of node names: adding or removing one
// node relocates only ~1/n of devices, and every holder of the same name
// set agrees on every assignment.
//
// A NodeRing is immutable after construction.
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
// TestPlacementGolden pins. The node serves it on /healthz, so a change of
// placement is visible from outside.
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
