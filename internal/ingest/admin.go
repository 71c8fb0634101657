package ingest

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/obs"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// LiveHeadline is the admin /headline document: the paper's headline
// statistics evaluated over everything the server has ingested so far.
type LiveHeadline struct {
	Devices int   `json:"devices"`
	Records int64 `json:"records"`

	TotalEnergyJ float64 `json:"total_energy_j"`
	IdleEnergyJ  float64 `json:"idle_energy_j"`

	// BackgroundFraction is the share of attributed energy consumed in
	// background states (paper: 0.84).
	BackgroundFraction  float64 `json:"background_fraction"`
	PerceptibleFraction float64 `json:"perceptible_fraction"`
	ServiceFraction     float64 `json:"service_fraction"`

	// FirstMinuteFraction is the §4.1 criterion at the 80% threshold
	// (paper: 0.84).
	FirstMinuteFraction float64 `json:"first_minute_fraction"`

	// Fig6 aggregates.
	Fig6FirstMinute float64 `json:"fig6_first_minute"`
	Fig6Spike5m     float64 `json:"fig6_spike_5m"`
	Fig6Spike10m    float64 `json:"fig6_spike_10m"`

	// ScreenOffByteShare is the fraction of bytes moved with the screen
	// off (paper §4: "more than half").
	ScreenOffByteShare float64 `json:"screen_off_byte_share"`

	DecodeErrors int `json:"decode_errors"`

	SpanStartUS int64 `json:"span_start_us"`
	SpanEndUS   int64 `json:"span_end_us"`
}

// HeadlineOf evaluates the live headline over a fleet StreamResult.
func HeadlineOf(res *analysis.StreamResult, devices int, records int64) LiveHeadline {
	f6 := res.SinceForeground()
	h := LiveHeadline{
		Devices:             devices,
		Records:             records,
		TotalEnergyJ:        res.Ledger.Total,
		IdleEnergyJ:         res.Ledger.IdleEnergy,
		BackgroundFraction:  res.Ledger.BackgroundFraction(),
		FirstMinuteFraction: res.FirstMinuteFraction(0.8),
		Fig6FirstMinute:     f6.FirstMinute,
		Fig6Spike5m:         finiteOrZero(f6.Spike5m),
		Fig6Spike10m:        finiteOrZero(f6.Spike10m),
		DecodeErrors:        res.DecodeErrors,
		SpanStartUS:         int64(res.Span[0]),
		SpanEndUS:           int64(res.Span[1]),
	}
	h.PerceptibleFraction = res.Ledger.StateFraction(trace.StatePerceptible)
	h.ServiceFraction = res.Ledger.StateFraction(trace.StateService)
	if total := res.OffBytes + res.OnBytes; total > 0 {
		h.ScreenOffByteShare = float64(res.OffBytes) / float64(total)
	}
	return h
}

// finiteOrZero is the headline's rule for a ratio with a zero denominator:
// no evidence reads as 0. The spike scores are such ratios: over an all-zero
// neighbourhood periodic.SpikeScore says +Inf — right for a report,
// unencodable as JSON — and a node with a few thousand records has one.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Headline evaluates the live headline over the current Snapshot.
func (s *Server) Headline() LiveHeadline {
	return HeadlineOf(s.Snapshot(), s.devices.len(), s.counters.records.Load())
}

// adminMux serves the observability surface:
//
//	GET  /healthz           -> 200 "ok"
//	GET  /metrics           -> Prometheus text exposition of every counter,
//	                           gauge and histogram (scrape this)
//	GET  /events            -> recent structured events as JSON
//	                           (?level=warn&n=50 to filter and trim)
//	GET  /stats             -> Stats JSON (add ?devices=1 for per-device counters)
//	GET  /headline          -> LiveHeadline JSON
//	GET  /device?id=<dev>   -> DeviceStats JSON (400 without id, 404 unknown)
//	POST /checkpoint        -> force a checkpoint now (405 on GET, 503 when
//	                           durability is off or the server is draining)
//	/debug/pprof/*          -> net/http/pprof handlers, only with
//	                           Config.EnablePprof (ingestd -pprof)
func (s *Server) adminMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.counters.reg.WriteText(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		max := 0
		if n := r.URL.Query().Get("n"); n != "" {
			v, err := strconv.Atoi(n)
			if err != nil || v < 0 {
				http.Error(w, "bad n parameter", http.StatusBadRequest)
				return
			}
			max = v
		}
		min := obs.ParseLevel(r.URL.Query().Get("level"))
		WriteJSON(w, struct {
			Total  uint64      `json:"total"`
			Events []obs.Event `json:"events"`
		}{s.counters.events.Total(), s.counters.events.Recent(max, min)})
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, s.Stats(r.URL.Query().Get("devices") != ""))
	})
	mux.HandleFunc("/headline", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, s.Headline())
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.SegmentDir == "" {
			http.Error(w, "segment store disabled (start with -segment-dir)", http.StatusServiceUnavailable)
			return
		}
		q, err := tsq.ParseQuery(r.URL.Query(), time.Now())
		if err != nil {
			s.counters.queryErrors.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Flush the live tail so the scan sees every record applied before
		// this request arrived; sync errors only cost tail freshness (the
		// affected device's persistence is already disabled and counted).
		s.SyncSegments() //nolint:errcheck // counted in segErrors
		res, err := tsq.Engine{Opts: s.cfg.Opts, Memo: s.memo}.QueryCatalog(s.catalog, q)
		if err != nil {
			s.counters.queryErrors.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.counters.queries.Add(1)
		s.counters.queryBlocksSkipped.Add(int64(res.Scan.BlocksSkipped))
		s.counters.queryWindowsMemoised.Add(int64(res.Scan.WindowsMemoised))
		s.counters.queryWindowsComputed.Add(int64(res.Scan.WindowsComputed))
		s.counters.queryBlocksCached.Add(int64(res.Scan.BlocksCached))
		s.counters.queryBlocksRefused.Add(int64(res.Scan.BlocksRefused))
		memo := s.memo.Stats()
		s.counters.queryMemoBytes.Set(memo.Bytes)
		s.counters.queryMemoIndexBytes.Set(memo.IndexBytes)
		s.counters.queryMemoBlockBytes.Set(memo.BlockBytes)
		writeResult(w, res)
	})
	mux.HandleFunc("/device", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		d := s.devices.lookup(id)
		if d == nil {
			http.Error(w, "unknown device", http.StatusNotFound)
			return
		}
		WriteJSON(w, d.snapshot())
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if err := s.SaveCheckpoint(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		WriteJSON(w, s.Stats(false).Checkpoint)
	})
	return mux
}

// resultBufs holds /query's response buffers between requests.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeResult answers /query with res as compact JSON, the bytes WriteJSON
// would write, encoded into a buffer reused across requests.
func writeResult(w http.ResponseWriter, res *tsq.Result) {
	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	b, err := res.AppendJSON((*buf)[:0])
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	*buf = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(*buf) //nolint:errcheck // client went away
}

// WriteJSON answers an admin request with v as compact JSON. It encodes
// before it answers, so a value the encoder refuses (a non-finite float) is
// a 500 carrying the error, not a 200 with no body.
func WriteJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n')) //nolint:errcheck // client went away
}
