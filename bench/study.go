package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/core"
	"netenergy/internal/energy"
	"netenergy/internal/trace"
)

// batchStudy: the paper's path. An on-disk METR-3 fleet is opened with one
// worker per core and the full report is rendered, over and over.
type batchStudy struct {
	r       *run
	dir     string
	records int64
	bytes   int64

	reportCRC uint32
	headline  *analysis.Headline
}

func (w *batchStudy) setup() (err error) {
	if w.dir, err = w.r.subdir("fleet"); err != nil {
		return err
	}
	size := w.r.cfg.fleet
	if err = w.r.writeFleet(size, w.dir); err != nil {
		return err
	}
	w.records = int64(size.users) * int64(size.records)
	w.bytes, err = dirBytes(w.dir)
	return err
}

// study is one operation: open the fleet, render every artifact. The report
// is hashed instead of discarded so that every repetition can be held to
// the first.
func (w *batchStudy) study(workers int, tr *tracer, parent int) (*core.Study, uint32, error) {
	id, end := tr.start("study", parent)
	defer end()
	_, endOpen := tr.start("core.open", id)
	s, err := core.OpenParallel(w.dir, workers)
	endOpen()
	if err != nil {
		return nil, 0, err
	}
	_, endReport := tr.start("report.write", id)
	defer endReport()
	h := crc32.NewIEEE()
	if err := s.WriteReport(h); err != nil {
		return nil, 0, err
	}
	return s, h.Sum32(), nil
}

func (w *batchStudy) load(d time.Duration, tr *tracer, parent int) (*phase, error) {
	p := newPhase("study")
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		s, crc, err := w.study(w.r.cfg.nproc, tr, parent)
		took := time.Since(t0)
		if err == nil {
			if w.headline == nil {
				h := s.Headline()
				w.headline, w.reportCRC = &h, crc
			} else if crc != w.reportCRC {
				err = fmt.Errorf("report differs from the first repetition's (crc %08x, was %08x)", crc, w.reportCRC)
			}
		}
		p.op("study", took, time.Minute, err)
		if err == nil {
			p.records += w.records
		}
		// Each repetition should start from the same heap, as a fresh
		// `analyze` process would.
		runtime.GC()
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// verify holds the parallel study's headline to the single-worker study's
// and to the bounded-memory streaming pass over the same files.
func (w *batchStudy) verify() error {
	r := w.r
	if w.headline == nil {
		return fmt.Errorf("no study completed")
	}
	s1, crc1, err := w.study(1, nil, 0)
	if err != nil {
		return err
	}
	r.check(crc1 == w.reportCRC, "1-worker report differs from the %d-worker report (crc %08x, was %08x)", r.cfg.nproc, crc1, w.reportCRC)
	h1 := s1.Headline()
	r.check(headlinesAgree(h1, *w.headline), "1-worker headline %+v, %d-worker headline %+v", h1, r.cfg.nproc, *w.headline)

	fleet, err := trace.OpenFleet(w.dir)
	if err != nil {
		return err
	}
	sr, err := analysis.StreamFleet(fleet, energy.DefaultOptions())
	if err != nil {
		return err
	}
	h := w.headline
	r.check(relClose(sr.Ledger.Total, h.TotalEnergyJ, 1e-6), "streamed energy %.6f J, study says %.6f J", sr.Ledger.Total, h.TotalEnergyJ)
	r.check(math.Abs(sr.Ledger.BackgroundFraction()-h.BackgroundFraction) <= 1e-9 &&
		math.Abs(sr.FirstMinuteFraction(0.8)-h.FirstMinute.Fraction) <= 1e-9,
		"streamed background %.9f / first-minute %.9f, study says %.9f / %.9f",
		sr.Ledger.BackgroundFraction(), sr.FirstMinuteFraction(0.8), h.BackgroundFraction, h.FirstMinute.Fraction)
	return nil
}

// headlinesAgree compares two headlines to 1e-9: sums over Go maps are taken
// in iteration order, so the last bits may differ between two runs of the
// same code.
func headlinesAgree(a, b analysis.Headline) bool {
	ok := relClose(a.TotalEnergyJ, b.TotalEnergyJ, 1e-9) &&
		relClose(a.BackgroundFraction, b.BackgroundFraction, 1e-9) &&
		relClose(a.PerceptibleFraction, b.PerceptibleFraction, 1e-9) &&
		relClose(a.ServiceFraction, b.ServiceFraction, 1e-9) &&
		relClose(a.FirstMinute.Fraction, b.FirstMinute.Fraction, 1e-9) &&
		len(a.BrowserBgShares) == len(b.BrowserBgShares)
	for k, v := range a.BrowserBgShares {
		ok = ok && relClose(v, b.BrowserBgShares[k], 1e-9)
	}
	return ok
}

func (w *batchStudy) teardown() (int64, int64, error) { return w.bytes, w.records, nil }
func (w *batchStudy) server() *child                  { return nil }
