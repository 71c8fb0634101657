package tsq

import (
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"netenergy/internal/trace"
)

// fixedNow anchors every relative form in these tests: 2013-01-15T12:00:00Z.
var fixedNow = time.Date(2013, 1, 15, 12, 0, 0, 0, time.UTC)

func TestParseQueryForms(t *testing.T) {
	nowUS := trace.TimestampOf(fixedNow)
	hour := trace.Timestamp(time.Hour.Microseconds())
	cases := []struct {
		name string
		raw  string
		want Query
	}{
		{"empty-defaults", "",
			Query{From: nowUS - hour, To: nowUS}},
		{"unix-micros", "from=1000&to=2000",
			Query{From: 1000, To: 2000}},
		{"rfc3339", "from=2013-01-15T10:00:00Z&to=2013-01-15T11:00:00Z",
			Query{From: nowUS - 2*hour, To: nowUS - hour}},
		{"relative", "from=-30m&to=-15m",
			Query{From: nowUS - hour/2, To: nowUS - hour/4}},
		{"last", "last=2h",
			Query{From: nowUS - 2*hour, To: nowUS}},
		{"last-with-to", "last=1h&to=1000000000",
			Query{From: 1000000000 - hour, To: 1000000000}},
		{"window-hour", "from=0&to=7200000000&window=hour",
			Query{From: 0, To: 7200000000, Window: hour}},
		{"window-day", "from=0&to=86400000000&window=day",
			Query{From: 0, To: 86400000000, Window: 24 * hour}},
		{"window-duration", "from=0&to=1000000&window=5m",
			Query{From: 0, To: 1000000, Window: trace.Timestamp(5 * time.Minute.Microseconds())}},
		{"apps-comma", "from=0&to=10&app=3,1,2",
			Query{From: 0, To: 10, Apps: []uint32{1, 2, 3}}},
		{"apps-repeated-dedup", "from=0&to=10&app=5&app=2,5",
			Query{From: 0, To: 10, Apps: []uint32{2, 5}}},
		{"topn", "from=0&to=10&topn=7",
			Query{From: 0, To: 10, TopN: 7}},
		{"topn-zero", "from=0&to=10&topn=0",
			Query{From: 0, To: 10}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := mustParse(t, c.raw, fixedNow)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("ParseQuery(%q) = %+v, want %+v", c.raw, got, c.want)
			}
		})
	}
}

func TestParseQueryRejects(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"unknown-param", "frm=0&to=10"},
		{"empty-window-range", "from=10&to=10"},
		{"inverted-range", "from=20&to=10"},
		{"from-and-last", "from=0&last=1h"},
		{"negative-last", "last=-1h"},
		{"zero-last", "last=0s"},
		{"garbage-time", "from=yesterday&to=10"},
		{"window-too-small", "from=0&to=10&window=1us"},
		{"window-garbage", "from=0&to=10&window=big"},
		{"window-explosion", "from=0&to=400000000000&window=1ms"},
		{"app-garbage", "from=0&to=10&app=chrome"},
		{"app-negative", "from=0&to=10&app=-1"},
		{"app-overflow", "from=0&to=10&app=4294967296"},
		{"topn-garbage", "from=0&to=10&topn=all"},
		{"topn-negative", "from=0&to=10&topn=-1"},
		{"topn-huge", "from=0&to=10&topn=9999999"},
		{"duration-overflow", "last=999999h"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := url.ParseQuery(c.raw)
			if err != nil {
				t.Fatal(err)
			}
			if q, err := ParseQuery(v, fixedNow); err == nil {
				t.Fatalf("ParseQuery(%q) accepted: %+v", c.raw, q)
			}
		})
	}
}

func TestParseQueryAppCap(t *testing.T) {
	v := url.Values{"from": {"0"}, "to": {"10"}}
	ids := make([]string, maxQueryApps+1)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
	}
	v["app"] = []string{strings.Join(ids, ",")}
	if _, err := ParseQuery(v, fixedNow); err == nil {
		t.Fatalf("%d app predicates accepted", maxQueryApps+1)
	}
	// Exactly at the cap is fine.
	v["app"] = []string{strings.Join(ids[:maxQueryApps], ",")}
	if _, err := ParseQuery(v, fixedNow); err != nil {
		t.Fatalf("%d app predicates rejected: %v", maxQueryApps, err)
	}
}

// TestQueryValuesRoundTrip: the canonical wire form re-parses to the
// same query, so a client that sends it asks what it meant.
func TestQueryValuesRoundTrip(t *testing.T) {
	queries := []Query{
		{From: 1000, To: 2000},
		{From: 0, To: 86400000000, Window: 3600000000},
		{From: 5, To: 10, Apps: []uint32{1, 7, 42}, TopN: 3},
		{From: -500, To: 500, Window: 1000},
	}
	for _, q := range queries {
		for _, includeTopN := range []bool{true, false} {
			v := q.Values(includeTopN)
			got, err := ParseQuery(v, fixedNow)
			if err != nil {
				t.Fatalf("round-trip of %+v failed: %v", q, err)
			}
			want := q
			if !includeTopN {
				want.TopN = 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round-trip of %+v (topn=%v) = %+v", q, includeTopN, got)
			}
		}
	}
}

func TestQueryRangeBoundary(t *testing.T) {
	q := mustParse(t, "from=100&to=200", fixedNow)
	r := q.Range()
	if !r.Contains(100) {
		t.Fatal("from is inclusive")
	}
	if r.Contains(200) {
		t.Fatal("to is exclusive: a record exactly at to must not appear")
	}
	if !r.Contains(199) {
		t.Fatal("to-1 is in range")
	}
}
