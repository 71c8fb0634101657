package appproto

import (
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	req := Request("GET", "api.weibo.example", "/poll")
	if !IsRequest(req) {
		t.Error("generated request not recognised")
	}
	host, ok := ParseHost(req)
	if !ok || string(host) != "api.weibo.example" {
		t.Errorf("host = %q, ok=%v", host, ok)
	}
}

func TestRequestDefaults(t *testing.T) {
	req := Request("", "h.example", "")
	if string(req[:4]) != "GET " {
		t.Errorf("default method: %q", req)
	}
	if host, ok := ParseHost(req); !ok || string(host) != "h.example" {
		t.Errorf("host = %q", host)
	}
}

func TestParseHostTruncated(t *testing.T) {
	req := Request("GET", "a-long-hostname.content.example", "/x")
	// Cut mid-hostname: must report not-ok rather than a partial host.
	cut := req[:len(req)-8]
	if host, ok := ParseHost(cut); ok {
		t.Errorf("truncated host parsed as %q", host)
	}
	if _, ok := ParseHost(nil); ok {
		t.Error("empty payload parsed")
	}
	if _, ok := ParseHost([]byte("Host: \r\n")); ok {
		t.Error("empty host accepted")
	}
}

func TestIsRequest(t *testing.T) {
	if IsRequest([]byte{0, 0, 0}) {
		t.Error("binary junk recognised as request")
	}
	if !IsRequest([]byte("POST /u HTTP/1.1\r\n")) {
		t.Error("POST not recognised")
	}
	if IsRequest([]byte("GE")) {
		t.Error("too-short payload recognised")
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]Category{
		"pix.adserver.example":      CatAds,
		"banner.ads.example":        CatAds,
		"sync.doubleclick.test":     CatAds,
		"t.metrics.example":         CatAnalytics,
		"collect.analytics.example": CatAnalytics,
		"static.cdn.example":        CatCDN,
		"gw.push.example":           CatPush,
		"api.weibo.example":         CatContent,
		"www.transit-times.example": CatContent,
		"":                          CatUnknown,
	}
	for host, want := range cases {
		if got := Classify(host); got != want {
			t.Errorf("Classify(%q) = %v, want %v", host, got, want)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	for c, want := range map[Category]string{
		CatUnknown: "unknown", CatContent: "content", CatAds: "ads",
		CatAnalytics: "analytics", CatCDN: "cdn", CatPush: "push",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestRequestFitsSnapWindow(t *testing.T) {
	// Every well-known host must produce a prefix that fits in the 56
	// payload bytes the default 96-byte snap length leaves.
	hosts := append(append([]string{}, AdHosts...), AnalyticsHosts...)
	for _, h := range hosts {
		req := Request("GET", h, "/r")
		if len(req) > 56 {
			t.Errorf("request for %s is %d bytes; exceeds snap window", h, len(req))
		}
	}
}
