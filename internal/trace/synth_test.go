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
}
