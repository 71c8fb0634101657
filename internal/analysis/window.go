package analysis

import (
	"sort"

	"netenergy/internal/energy"
	"netenergy/internal/trace"
)

// WindowedAccumulator partitions a device stream into fixed time windows
// aligned to the epoch (window k covers [k*width, (k+1)*width)) and runs
// an independent StreamAccumulator per window. Each window's result is
// therefore *by construction* identical to a whole-trace batch run
// restricted to that window's records: no radio state, process-state
// snapshot or screen flag leaks across a window boundary, exactly as if
// the window had been analysed standalone. That is the equivalence the
// query engine's acceptance test holds it to, and the price is the same
// one a batch rerun pays — tail energy is charged within the window
// where its triggering traffic happened.
//
// A width of 0 disables partitioning: every record lands in a single
// window starting at the first record's timestamp.
type WindowedAccumulator struct {
	device string
	opts   energy.Options
	width  trace.Timestamp
	accs   map[trace.Timestamp]*windowAcc
}

// windowAcc is one window's accumulator and how many records it was fed.
type windowAcc struct {
	*StreamAccumulator
	records int64
}

// WindowResult pairs a window's start (its covered span is
// [Start, Start+width)) with the finished per-window stream result and
// the number of records that went into it.
type WindowResult struct {
	Start   trace.Timestamp
	Records int64
	Res     *StreamResult
}

// NewWindowedAccumulator returns an accumulator splitting the device's
// stream into windows of width microseconds (0 = one unbounded window).
func NewWindowedAccumulator(device string, width trace.Timestamp, opts energy.Options) *WindowedAccumulator {
	if width < 0 {
		width = 0
	}
	return &WindowedAccumulator{
		device: device,
		opts:   opts,
		width:  width,
		accs:   map[trace.Timestamp]*windowAcc{},
	}
}

// WindowStart maps a timestamp to the start of its window of the given
// width (0 = the one unbounded window, which starts at 0). Epoch
// alignment (floor division, correct for negative timestamps too) keeps
// window boundaries identical across devices and nodes, so per-window
// results merge without re-bucketing.
func WindowStart(ts, width trace.Timestamp) trace.Timestamp {
	if width == 0 {
		return 0
	}
	k := ts / width
	if ts%width < 0 {
		k--
	}
	return k * width
}

// acc returns (creating on first use) the accumulator owning ts, charged
// with n more records.
func (w *WindowedAccumulator) acc(ts trace.Timestamp, n int) *StreamAccumulator {
	start := WindowStart(ts, w.width)
	a := w.accs[start]
	if a == nil {
		a = &windowAcc{StreamAccumulator: NewStreamAccumulator(w.device, w.opts)}
		w.accs[start] = a
	}
	a.records += int64(n)
	return a.StreamAccumulator
}

// Feed routes one record to its window's accumulator.
func (w *WindowedAccumulator) Feed(rec *trace.Record) {
	w.acc(rec.TS, 1).Feed(rec)
}

// FeedBatch routes a batch, splitting it at window boundaries. Records
// within a batch are non-decreasing in time (writer-enforced), so each
// window's run is contiguous and feeds as a sub-batch view.
func (w *WindowedAccumulator) FeedBatch(b *trace.RecordBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if w.width == 0 {
		w.acc(b.TS[0], n).FeedBatch(b)
		return
	}
	lo := 0
	for lo < n {
		end := WindowStart(b.TS[lo], w.width) + w.width
		hi := lo + 1
		for hi < n && b.TS[hi] < end {
			hi++
		}
		view := b.Slice(lo, hi)
		w.acc(b.TS[lo], hi-lo).FeedBatch(&view)
		lo = hi
	}
}

// Finish settles every window (radio tail + idle) and returns the
// results sorted by window start. The accumulator must not be fed
// afterwards.
func (w *WindowedAccumulator) Finish() []WindowResult {
	starts := make([]trace.Timestamp, 0, len(w.accs))
	//repolint:ordered collection order is irrelevant: starts are sorted before use
	for start := range w.accs {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]WindowResult, 0, len(starts))
	for _, start := range starts {
		a := w.accs[start]
		out = append(out, WindowResult{Start: start, Records: a.records, Res: a.Finish()})
	}
	return out
}
