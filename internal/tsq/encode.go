package tsq

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends r's JSON encoding to dst: the bytes encoding/json
// writes for r, by its struct tags — field order, omitempty, "apps":null
// for a nil Apps, HTML-safe string escaping, and encoding/json's float
// format. A NaN or infinite float is an error, as it is to encoding/json.
// With room in dst it allocates nothing.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"from_us":`...)
	dst = strconv.AppendInt(dst, r.FromUS, 10)
	dst = append(dst, `,"to_us":`...)
	dst = strconv.AppendInt(dst, r.ToUS, 10)
	if r.WindowUS != 0 {
		dst = append(dst, `,"window_us":`...)
		dst = strconv.AppendInt(dst, r.WindowUS, 10)
	}
	dst = append(dst, `,"devices":`...)
	dst = strconv.AppendInt(dst, int64(r.Devices), 10)
	dst = append(dst, `,"records":`...)
	dst = strconv.AppendInt(dst, r.Records, 10)
	dst = append(dst, `,"total_energy_j":`...)
	if dst, err = appendFloat(dst, r.TotalEnergyJ); err != nil {
		return nil, err
	}
	dst = append(dst, `,"total_bytes":`...)
	dst = strconv.AppendInt(dst, r.TotalBytes, 10)
	dst = append(dst, `,"apps":`...)
	if r.Apps == nil {
		dst = append(dst, "null"...)
	} else if dst, err = appendApps(dst, r.Apps); err != nil {
		return nil, err
	}
	if len(r.Windows) > 0 {
		dst = append(dst, `,"windows":[`...)
		for i := range r.Windows {
			w := &r.Windows[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"start_us":`...)
			dst = strconv.AppendInt(dst, w.StartUS, 10)
			dst = append(dst, `,"end_us":`...)
			dst = strconv.AppendInt(dst, w.EndUS, 10)
			dst = append(dst, `,"energy_j":`...)
			if dst, err = appendFloat(dst, w.EnergyJ); err != nil {
				return nil, err
			}
			dst = append(dst, `,"bytes":`...)
			dst = strconv.AppendInt(dst, w.Bytes, 10)
			if len(w.Apps) > 0 {
				dst = append(dst, `,"apps":`...)
				if dst, err = appendApps(dst, w.Apps); err != nil {
					return nil, err
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Downsampled {
		dst = append(dst, `,"downsampled":true`...)
	}
	dst = r.Scan.appendJSON(append(dst, `,"scan":`...))
	return append(dst, '}'), nil
}

// MarshalJSON is AppendJSON for encoding/json, so an indenting encoder
// (cmd/tsq -json) indents the same bytes.
func (r *Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

func (s *ScanStats) appendJSON(dst []byte) []byte {
	field := func(dst []byte, name string, v int64, omitZero bool) []byte {
		if omitZero && v == 0 {
			return dst
		}
		dst = append(dst, name...)
		return strconv.AppendInt(dst, v, 10)
	}
	dst = field(dst, `{"files":`, int64(s.Files), false)
	dst = field(dst, `,"blocks_total":`, int64(s.BlocksTotal), false)
	dst = field(dst, `,"blocks_skipped":`, int64(s.BlocksSkipped), false)
	dst = field(dst, `,"blocks_scanned":`, int64(s.BlocksScanned), false)
	dst = field(dst, `,"blocks_cached":`, int64(s.BlocksCached), true)
	dst = field(dst, `,"bytes_decompressed":`, s.BytesDecompressed, true)
	dst = field(dst, `,"records_scanned":`, s.RecordsScanned, false)
	dst = field(dst, `,"records_matched":`, s.RecordsMatched, false)
	dst = field(dst, `,"windows_memoised":`, int64(s.WindowsMemoised), true)
	dst = field(dst, `,"windows_computed":`, int64(s.WindowsComputed), true)
	dst = field(dst, `,"blocks_refused":`, int64(s.BlocksRefused), true)
	return append(dst, '}')
}

func appendApps(dst []byte, rows []AppRow) ([]byte, error) {
	var err error
	dst = append(dst, '[')
	for i := range rows {
		r := &rows[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"app":`...)
		dst = strconv.AppendUint(dst, uint64(r.App), 10)
		if r.Name != "" {
			dst = append(dst, `,"name":`...)
			dst = appendString(dst, r.Name)
		}
		dst = append(dst, `,"energy_j":`...)
		if dst, err = appendFloat(dst, r.EnergyJ); err != nil {
			return nil, err
		}
		dst = append(dst, `,"bytes":`...)
		dst = strconv.AppendInt(dst, r.Bytes, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// appendFloat formats f as encoding/json does: like ES6, 'f' unless the
// magnitude is below 1e-6 or at least 1e21, and then 'e' with a
// two-digit negative exponent cut to one ("e-07" -> "e-7").
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("tsq: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: '"'
// and '\\' backslashed, control bytes as \b, \f, \n, \r, \t or \u00XX,
// '<', '>' and '&' as \u00XX, invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 as \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
