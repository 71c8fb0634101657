// Package tsq is the embedded time-series query engine over METR
// segment directories: block-pushdown scans driven by the containers'
// per-block firstTS/lastTS seek index, columnar app predicates, and
// windowed per-app energy rollups computed by the radio accountant
// (internal/analysis) over exactly the records inside the half-open
// query window [from, to).
//
// The package is deliberately deterministic: given the same segment
// bytes and the same Query, both code paths — ingestd's GET /query and
// the offline cmd/tsq CLI — produce byte-identical results. Anything wall-clock-shaped (resolving
// "last=1h") happens at the edges: ParseQuery takes the reference time
// as an argument.
package tsq

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"netenergy/internal/trace"
)

// Query is a parsed, validated query.
type Query struct {
	// From and To bound the half-open window [From, To): a record
	// exactly at To is out of range.
	From, To trace.Timestamp

	// Window is the rollup width in microseconds; 0 means a single
	// unwindowed aggregate. Windows are epoch-aligned (window k covers
	// [k*Window, (k+1)*Window)), so results merge across nodes without
	// re-bucketing.
	Window trace.Timestamp

	// Apps, when non-empty, restricts the scan to these app IDs
	// (device-global screen records always pass — they gate the
	// screen-on/off energy split).
	Apps []uint32

	// TopN, when > 0, truncates the per-app rows (globally and per
	// window) after sorting by energy. 0 keeps all rows.
	TopN int
}

// Parse limits: queries are parsed from untrusted HTTP input, so every
// dimension that sizes an allocation or a loop is capped.
const (
	maxQueryApps = 1024
	// maxQueryWindows bounds (To-From)/Window: a 1 µs window over a year
	// must not materialise 3e13 rollup rows.
	maxQueryWindows = 200_000
)

// defaultSpan is the window when from/to/last are all absent: the last
// hour before the reference time.
const defaultSpan = time.Hour

// ParseQuery parses and validates URL query parameters:
//
//	from, to  RFC3339, integer unix microseconds, or a signed duration
//	          relative to now ("-15m"); to defaults to now, from to
//	          to-1h
//	last      duration shorthand: from = to - last
//	window    rollup width: a duration ("5m", "1h") or "hour"/"day"
//	app       app IDs, comma-separated and/or repeated
//	topn      keep the top-N apps by energy (0 = all)
//
// now anchors the relative forms; callers pass time.Now() at the edge
// (or a fixed instant in tests) so the engine itself stays clock-free.
// Unknown parameters are rejected — a typo like "frm" must not silently
// widen a query to the default window.
func ParseQuery(v url.Values, now time.Time) (Query, error) {
	var q Query
	for key := range v {
		switch key {
		case "from", "to", "last", "window", "app", "topn":
		default:
			return q, fmt.Errorf("tsq: unknown query parameter %q", key)
		}
	}

	to, err := parseTime(v.Get("to"), now, now)
	if err != nil {
		return q, fmt.Errorf("tsq: to: %w", err)
	}
	q.To = to

	defFrom := to.Time().Add(-defaultSpan)
	if last := v.Get("last"); last != "" {
		if v.Get("from") != "" {
			return q, fmt.Errorf("tsq: from and last are mutually exclusive")
		}
		d, err := parseDuration(last)
		if err != nil {
			return q, fmt.Errorf("tsq: last: %w", err)
		}
		if d <= 0 {
			return q, fmt.Errorf("tsq: last must be positive, got %v", d)
		}
		defFrom = to.Time().Add(-d)
	}
	from, err := parseTime(v.Get("from"), now, defFrom)
	if err != nil {
		return q, fmt.Errorf("tsq: from: %w", err)
	}
	q.From = from

	if q.From >= q.To {
		return q, fmt.Errorf("tsq: empty window: from (%d) must precede to (%d)", q.From, q.To)
	}

	if w := v.Get("window"); w != "" {
		var d time.Duration
		switch w {
		case "hour":
			d = time.Hour
		case "day":
			d = 24 * time.Hour
		default:
			d, err = parseDuration(w)
			if err != nil {
				return q, fmt.Errorf("tsq: window: %w", err)
			}
		}
		if d < time.Millisecond {
			return q, fmt.Errorf("tsq: window must be at least 1ms, got %v", d)
		}
		q.Window = trace.Timestamp(d.Microseconds())
		if span := int64(q.To - q.From); span/int64(q.Window) > maxQueryWindows {
			return q, fmt.Errorf("tsq: window %v over span %dus exceeds %d rollup windows", d, span, maxQueryWindows)
		}
	}

	for _, raw := range v["app"] {
		for _, part := range strings.Split(raw, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			id, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				return q, fmt.Errorf("tsq: app: %q is not an app ID", part)
			}
			q.Apps = append(q.Apps, uint32(id))
		}
	}
	if len(q.Apps) > maxQueryApps {
		return q, fmt.Errorf("tsq: %d app predicates exceed the %d cap", len(q.Apps), maxQueryApps)
	}
	// Canonical form: sorted, deduplicated — Values() round-trips and
	// fan-out requests are byte-stable.
	sort.Slice(q.Apps, func(i, j int) bool { return q.Apps[i] < q.Apps[j] })
	q.Apps = dedupU32(q.Apps)

	if t := v.Get("topn"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			return q, fmt.Errorf("tsq: topn: %q is not a non-negative integer", t)
		}
		if n > 1<<20 {
			return q, fmt.Errorf("tsq: topn %d exceeds the %d cap", n, 1<<20)
		}
		q.TopN = n
	}
	return q, nil
}

// parseTime parses one from/to value: empty falls back to def, an
// optionally-signed integer means unix microseconds, a signed duration
// ("-15m") is relative to now, anything else must be RFC3339.
func parseTime(s string, now, def time.Time) (trace.Timestamp, error) {
	if s == "" {
		return trace.TimestampOf(def), nil
	}
	digits := s
	if s[0] == '-' || s[0] == '+' {
		digits = s[1:]
	}
	if isDigits(digits) {
		us, err := strconv.ParseInt(strings.TrimPrefix(s, "+"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("microsecond timestamp %q: %w", s, err)
		}
		return trace.Timestamp(us), nil
	}
	if s[0] == '-' || s[0] == '+' {
		d, err := parseDuration(s)
		if err != nil {
			return 0, err
		}
		return trace.TimestampOf(now.Add(d)), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return 0, fmt.Errorf("%q is neither RFC3339, unix microseconds, nor a relative duration", s)
	}
	return trace.TimestampOf(t), nil
}

// parseDuration is time.ParseDuration with a range guard: ±100 years
// of microsecond timestamps stay far inside int64, so queries cannot
// overflow timestamp arithmetic.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	const maxSpan = 100 * 365 * 24 * time.Hour
	if d > maxSpan || d < -maxSpan {
		return 0, fmt.Errorf("duration %v out of range", d)
	}
	return d, nil
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

func dedupU32(s []uint32) []uint32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Values renders q in the canonical wire form ParseQuery accepts —
// integer microsecond bounds, microsecond window — so a client asks
// /query in the one grammar (FuzzQueryParse round-trips it). includeTopN
// false leaves the rows untruncated, for a caller that merges results and
// cuts after the merge.
func (q Query) Values(includeTopN bool) url.Values {
	v := url.Values{}
	v.Set("from", strconv.FormatInt(int64(q.From), 10))
	v.Set("to", strconv.FormatInt(int64(q.To), 10))
	if q.Window > 0 {
		v.Set("window", strconv.FormatInt(int64(q.Window), 10)+"us")
	}
	if len(q.Apps) > 0 {
		parts := make([]string, len(q.Apps))
		for i, a := range q.Apps {
			parts[i] = strconv.FormatUint(uint64(a), 10)
		}
		v.Set("app", strings.Join(parts, ","))
	}
	if includeTopN && q.TopN > 0 {
		v.Set("topn", strconv.Itoa(q.TopN))
	}
	return v
}

// Range returns the scan window as a trace.TimeRange.
func (q Query) Range() trace.TimeRange {
	return trace.TimeRange{From: q.From, To: q.To}
}
