package core

import (
	"context"
	"reflect"
	"testing"

	"dpals/internal/gen"
	"dpals/internal/metric"
)

// TestFlowsDeterministicAcrossThreads is the contract behind the parallel
// analysis pipeline: every flow must produce bit-identical results for every
// Threads value. Threads=8 on a smaller GOMAXPROCS still exercises the
// concurrent code paths (package par never reduces the worker count to the
// CPU count), so the comparison is meaningful on any machine.
func TestFlowsDeterministicAcrossThreads(t *testing.T) {
	g := gen.MultU(6, 6)
	R := metric.ReferenceError(g.NumPOs())

	flows := []struct {
		name  string
		flow  Flow
		tweak func(*Options)
	}{
		{"Conventional", FlowConventional, nil},
		{"VECBEE", FlowVECBEE, func(o *Options) { o.DepthLimit = 3 }},
		{"AccALS", FlowAccALS, nil},
		{"DP", FlowDP, nil},
		{"DP-SA", FlowDPSA, nil},
	}
	for _, tc := range flows {
		t.Run(tc.name, func(t *testing.T) {
			run := func(threads int) *Result {
				opt := Options{
					Flow: tc.flow, Metric: metric.MSE, Threshold: R * R,
					Patterns: 1024, Seed: 7, Threads: threads, MaxIters: 25,
					UseConstLACs: true, UseSASIMILACs: true,
				}
				if tc.tweak != nil {
					tc.tweak(&opt)
				}
				res, err := Run(context.Background(), g, opt, Hooks{})
				if err != nil {
					t.Fatalf("Run(threads=%d): %v", threads, err)
				}
				return res
			}
			serial := run(1)
			parallel := run(8)
			if serial.Error != parallel.Error {
				t.Errorf("Error: serial %v, parallel %v", serial.Error, parallel.Error)
			}
			if serial.Stats.Applied != parallel.Stats.Applied {
				t.Errorf("Applied: serial %d, parallel %d", serial.Stats.Applied, parallel.Stats.Applied)
			}
			// DP-SA's §III-D parameter tuning profiles the steps with
			// the deterministic work estimates (not wall-clock), so even
			// its phase partition and every counter must agree.
			if s, p := normalizeStats(serial.Stats), normalizeStats(parallel.Stats); !reflect.DeepEqual(s, p) {
				t.Errorf("Stats diverge:\n serial:   %+v\n parallel: %+v", s, p)
			}
			if sn, pn := serial.Graph.NumAnds(), parallel.Graph.NumAnds(); sn != pn {
				t.Errorf("NumAnds: serial %d, parallel %d", sn, pn)
			}
		})
	}
}
