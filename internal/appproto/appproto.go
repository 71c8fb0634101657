// Package appproto generates and parses the compact HTTP/1.1 request
// prefixes the synthetic apps embed in their first uplink packet, and
// classifies the hostnames they target.
//
// The paper's collector "collects complete network traces... including
// packet payloads", and §4.1 traces Chrome's background leaks to
// "auto-refreshing content, including some ad and analytics content".
// Reproducing that attribution requires application-layer bytes in the
// capture: the generator writes a minimal request line + Host header into
// each burst's first packet (within the snap length), and the analyzer
// parses it back out and buckets the host into a category.
package appproto

import (
	"bytes"
	"strings"
)

// Category classifies a request's destination service.
type Category uint8

// Host categories. Content covers first-party app/service traffic.
const (
	CatUnknown Category = iota
	CatContent
	CatAds
	CatAnalytics
	CatCDN
	CatPush
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatContent:
		return "content"
	case CatAds:
		return "ads"
	case CatAnalytics:
		return "analytics"
	case CatCDN:
		return "cdn"
	case CatPush:
		return "push"
	default:
		return "unknown"
	}
}

// Well-known synthetic host suffixes by category. These mirror the kinds
// of third-party domains the paper's in-lab validation observed in leaked
// browser traffic.
var categorySuffixes = map[string]Category{
	".adserver.example":  CatAds,
	".ads.example":       CatAds,
	".doubleclick.test":  CatAds,
	".metrics.example":   CatAnalytics,
	".analytics.example": CatAnalytics,
	".beacon.example":    CatAnalytics,
	".cdn.example":       CatCDN,
	".push.example":      CatPush,
}

// Classify buckets a hostname by suffix; hosts with no known suffix are
// first-party content.
func Classify(host string) Category {
	if host == "" {
		return CatUnknown
	}
	for suffix, cat := range categorySuffixes {
		if strings.HasSuffix(host, suffix) {
			return cat
		}
	}
	return CatContent
}

// AdHosts and AnalyticsHosts are the third-party hosts leaky web pages
// call out to; the browser model samples from them.
var (
	AdHosts = []string{
		"pix.adserver.example", "banner.ads.example", "sync.doubleclick.test",
	}
	AnalyticsHosts = []string{
		"t.metrics.example", "collect.analytics.example", "ping.beacon.example",
	}
)

// Request renders a minimal HTTP/1.1 request prefix. Hosts and paths are
// kept short so the prefix survives the default 96-byte snap length (40
// bytes of headers leave 56 for the prefix).
func Request(method, host, path string) []byte {
	if method == "" {
		method = "GET"
	}
	if path == "" {
		path = "/"
	}
	var b bytes.Buffer
	b.WriteString(method)
	b.WriteByte(' ')
	b.WriteString(path)
	b.WriteString(" HTTP/1.1\r\nHost: ")
	b.WriteString(host)
	b.WriteString("\r\n")
	return b.Bytes()
}

// ParseHost extracts the Host header value from a (possibly truncated)
// request prefix. ok is false when no complete Host header is present in
// the captured bytes. host aliases payload.
func ParseHost(payload []byte) (host []byte, ok bool) {
	const marker = "Host: "
	i := bytes.Index(payload, []byte(marker))
	if i < 0 {
		return nil, false
	}
	rest := payload[i+len(marker):]
	end := bytes.IndexByte(rest, '\r')
	if end <= 0 {
		// No host, or a header truncated by the snap length.
		return nil, false
	}
	return rest[:end], true
}

// IsRequest reports whether the payload begins with a plausible HTTP
// request line.
func IsRequest(payload []byte) bool {
	for _, m := range [...]string{"GET ", "POST ", "HEAD ", "PUT "} {
		if len(payload) >= len(m) && string(payload[:len(m)]) == m {
			return true
		}
	}
	return false
}
