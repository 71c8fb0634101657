package tsq

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// edgeFloats are the values at encoding/json's format boundaries: signed
// zero, the 'e' cutoffs at 1e-6 and 1e21 from both sides, one- and
// three-digit exponents, and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), -1e-7, 1e-9, 1.5e-10,
	1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 123456789.125, 1e-300, 1e300,
	math.SmallestNonzeroFloat64, -math.MaxFloat64, 2.5e-7, 0.000001234,
}

// edgeNames are strings encoding/json escapes: quotes, backslashes,
// control bytes, HTML-sensitive bytes, DEL, multi-byte UTF-8, invalid
// UTF-8 (a stray continuation byte, a truncated sequence, an encoded
// surrogate) and the JavaScript line and paragraph separators.
var edgeNames = []string{
	"", "mail", `"quoted"`, `back\slash`, "tab\tnew\nline\rcr", "\b\f\x00\x01\x1f", "<script>&amp;</script>",
	"del\x7f", "ünïcödé ☃ 𝄞", "\x80", "bad\xc3", "\xed\xa0\x80", "line\u2028para\u2029end", "\xef\xbf\xbd",
}

// checkAppendJSON holds AppendJSON, and json.Marshal through MarshalJSON,
// to encoding/json's bytes for the method-less copy of r; a value
// encoding/json refuses must be refused.
func checkAppendJSON(t *testing.T, r *Result) {
	t.Helper()
	want, werr := json.Marshal((*plainResult)(r))
	got, gerr := r.AppendJSON([]byte("prefix"))
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("encoding/json error %v, AppendJSON error %v", werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON writes\n%s\nencoding/json\n%s", got, want)
	}
	if via, err := json.Marshal(r); err != nil || !bytes.Equal(via, want) {
		t.Fatalf("json.Marshal through MarshalJSON: %v\n%s\nwant\n%s", err, via, want)
	}
}

func randomResult(r *rand.Rand) *Result {
	pick := func() float64 {
		if r.Intn(3) == 0 {
			return edgeFloats[r.Intn(len(edgeFloats))]
		}
		return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(0x7ff))<<52) // any finite
	}
	i64 := func() int64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return r.Int63() - r.Int63()
	}
	rows := func() []AppRow {
		if r.Intn(5) == 0 {
			return nil
		}
		rows := make([]AppRow, r.Intn(5))
		for i := range rows {
			rows[i] = AppRow{App: r.Uint32(), EnergyJ: pick(), Bytes: i64()}
			if r.Intn(2) == 0 {
				rows[i].Name = edgeNames[r.Intn(len(edgeNames))]
			}
		}
		return rows
	}
	res := &Result{
		FromUS: i64(), ToUS: i64(), WindowUS: i64(), Devices: int(i64() % 1000), Records: i64(),
		TotalEnergyJ: pick(), TotalBytes: i64(), Apps: rows(), Downsampled: r.Intn(2) == 0,
		Scan: ScanStats{
			Files: int(i64()), BlocksTotal: int(i64()), BlocksSkipped: int(i64()), BlocksScanned: int(i64()),
			BlocksCached: int(i64()), BytesDecompressed: i64(), RecordsScanned: i64(), RecordsMatched: i64(),
			WindowsMemoised: int(i64()), WindowsComputed: int(i64()), BlocksRefused: int(i64()),
		},
	}
	if r.Intn(4) != 0 {
		res.Windows = make([]WindowRow, r.Intn(4))
		for i := range res.Windows {
			res.Windows[i] = WindowRow{StartUS: i64(), EndUS: i64(), EnergyJ: pick(), Bytes: i64(), Apps: rows()}
		}
	}
	return res
}

// TestResultJSONMatchesEncodingJSON: for random results and every edge
// float and name, AppendJSON writes the bytes encoding/json writes for the
// same value by reflection, and refuses what it refuses.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	checkAppendJSON(t, &Result{})
	checkAppendJSON(t, &Result{Apps: []AppRow{}, Windows: []WindowRow{{Apps: []AppRow{}}}})
	for _, f := range edgeFloats {
		checkAppendJSON(t, &Result{TotalEnergyJ: f, Apps: []AppRow{{EnergyJ: -f}}, Windows: []WindowRow{{EnergyJ: f}}})
	}
	for _, name := range edgeNames {
		checkAppendJSON(t, &Result{Apps: []AppRow{{App: 3, Name: name}}})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []*Result{
			{TotalEnergyJ: bad},
			{Apps: []AppRow{{EnergyJ: bad}}},
			{Windows: []WindowRow{{EnergyJ: bad}}},
			{Windows: []WindowRow{{Apps: []AppRow{{EnergyJ: bad}}}}},
		} {
			if _, err := r.AppendJSON(nil); err == nil {
				t.Fatalf("AppendJSON encoded %v", bad)
			}
		}
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkAppendJSON(t, randomResult(rnd))
	}
	// An indenting encoder indents the same bytes.
	res := randomResult(rnd)
	got, err := json.MarshalIndent(res, "", "  ")
	want, _ := json.MarshalIndent((*plainResult)(res), "", "  ")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalIndent: %v\n%s\nwant\n%s", err, got, want)
	}
}

// FuzzResultJSON: a result built from arbitrary bytes — any float bit
// pattern, NaN and infinities included, and any name bytes — encodes as
// encoding/json encodes it, or is refused as encoding/json refuses it.
func FuzzResultJSON(f *testing.F) {
	f.Add("mail", []byte{}, false)
	f.Add("<&>\u2028\x00", []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, true) // +Inf
	f.Add("\xff\xfe", binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e-7)), false)
	f.Add(strings.Repeat("é", 5), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e21)), true)
	f.Fuzz(func(t *testing.T, name string, data []byte, nilApps bool) {
		var floats []float64
		for len(data) >= 8 {
			floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		next := func() float64 {
			if len(floats) == 0 {
				return 0
			}
			v := floats[0]
			floats = floats[1:]
			return v
		}
		res := &Result{FromUS: int64(len(name)) - 3, WindowUS: int64(len(floats)), TotalEnergyJ: next(), Downsampled: nilApps}
		if !nilApps {
			res.Apps = []AppRow{{App: uint32(len(name)), Name: name, EnergyJ: next(), Bytes: -1}}
		}
		for i := 0; len(floats) > 0 && i < 8; i++ {
			res.Windows = append(res.Windows, WindowRow{StartUS: int64(i), EnergyJ: next(),
				Apps: []AppRow{{Name: name[:len(name)*i/8], EnergyJ: next()}}})
		}
		checkAppendJSON(t, res)
	})
}

// TestAppendJSONAllocs: into a buffer with room, AppendJSON allocates
// nothing.
func TestAppendJSONAllocs(t *testing.T) {
	res := randomResult(rand.New(rand.NewSource(7)))
	res.Apps = append(res.Apps, AppRow{App: 9, Name: "a<b>\u2028\xff", EnergyJ: 1e-9})
	buf, err := res.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = res.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON into a buffer with room: %v allocations, want 0", n)
	}
}
