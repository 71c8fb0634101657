package ingest

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

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

// TestPlacementBalance states how evenly shardOf spreads each name family:
// over n shards, the busiest holds at most bound(n) times the mean.
//
// The bound is derived from the hash, not fitted to what it happens to do.
// If placeHash is uniform, one shard's count of M names is Binomial(M, 1/n):
// relative standard deviation sqrt((n-1)/M). The bound is the mean plus
// three of those: at M = 4096, 1.047, 1.081 and 1.124 for 2, 4 and 8
// shards. Where ingest runs — one shard per core, 2 to 4 cores — it is also
// capped at 1.2 whatever M is: more than that idles a fifth of a core.
func TestPlacementBalance(t *testing.T) {
	const names = 4096
	fams := placementFamilies(names)
	for _, n := range []int{2, 4, 8} {
		bound := 1 + 3*math.Sqrt(float64(n-1)/names)
		if n <= 4 {
			bound = math.Min(bound, 1.2)
		}
		for _, fam := range fams {
			perShard := make([]int, n)
			for _, dev := range fam {
				s := shardOf(dev, n)
				if s < 0 || s >= n {
					t.Fatalf("%s: shard %d out of range [0, %d)", dev, s, n)
				}
				perShard[s]++
			}
			if ratio := float64(slices.Max(perShard)) * float64(n) / names; ratio > bound {
				t.Errorf("%d shards, %s...: busiest holds %.3f x the mean, bound %.3f (%v)",
					n, fam[0], ratio, bound, perShard)
			}
		}
	}
}
