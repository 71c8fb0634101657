package trace_test

import (
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

func init() {
	trace.SynthDevice = func() *trace.DeviceTrace {
		cfg := synthgen.Default()
		cfg.Users, cfg.Days, cfg.Seed = 1, 1, 7
		return synthgen.GenerateDevice(cfg, 0)
	}
	trace.StreamPoolDevice = func(seed uint64, i, n int) *trace.DeviceTrace {
		cfg := synthgen.Small(i+1, 1+n/7700)
		cfg.Seed = seed
		for {
			dt := synthgen.GenerateDevice(cfg, i)
			if len(dt.Records) >= n {
				dt.Records = dt.Records[:n]
				return dt
			}
			cfg.Days = cfg.Days*n/(len(dt.Records)+1)*5/4 + 1
		}
	}
}
