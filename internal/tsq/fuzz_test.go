package tsq

import (
	"net/url"
	"reflect"
	"testing"
	"time"
)

// FuzzQueryParse throws arbitrary query strings at ParseQuery. Accepted
// queries must satisfy the engine's invariants (non-empty half-open
// window, canonical sorted app list, bounded dimensions) and round-trip
// through the canonical wire form, which is what a client sends.
func FuzzQueryParse(f *testing.F) {
	seeds := []string{
		"",
		"from=1000&to=2000",
		"from=2013-01-15T10:00:00Z&to=2013-01-15T11:00:00Z",
		"from=-30m&to=-15m",
		"last=2h",
		"from=0&to=7200000000&window=hour",
		"from=0&to=86400000000&window=day&topn=10",
		"from=0&to=10&app=3,1,2&app=7",
		"from=20&to=10",
		"frm=0&to=10",
		"window=1us&from=0&to=10",
		"last=999999h",
		"app=4294967296&from=0&to=10",
		"topn=-1&from=0&to=10",
		"from=9223372036854775807&to=1",
		"from=%zz",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	now := time.Date(2013, 1, 15, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := ParseQuery(v, now)
		if err != nil {
			return
		}
		// Invariants of every accepted query.
		if q.From >= q.To {
			t.Fatalf("accepted empty window [%d, %d)", q.From, q.To)
		}
		if q.Window < 0 {
			t.Fatalf("negative window %d", q.Window)
		}
		if q.Window > 0 {
			if int64(q.To-q.From)/int64(q.Window) > maxQueryWindows {
				t.Fatalf("window %d over span [%d, %d) exceeds the rollup cap", q.Window, q.From, q.To)
			}
		}
		if len(q.Apps) > maxQueryApps {
			t.Fatalf("%d app predicates exceed the cap", len(q.Apps))
		}
		for i := 1; i < len(q.Apps); i++ {
			if q.Apps[i] <= q.Apps[i-1] {
				t.Fatalf("app list not sorted+deduped: %v", q.Apps)
			}
		}
		if q.TopN < 0 || q.TopN > 1<<20 {
			t.Fatalf("topn %d out of bounds", q.TopN)
		}
		// Canonical form round-trips exactly.
		q2, err := ParseQuery(q.Values(true), now)
		if err != nil {
			t.Fatalf("canonical form of %+v rejected: %v", q, err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("canonical round-trip drifted: %+v -> %+v", q, q2)
		}
	})
}
