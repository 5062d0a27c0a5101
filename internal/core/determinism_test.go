package core

import (
	"context"
	"testing"

	"dpals/internal/gen"
	"dpals/internal/lac"
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
		{"AccALS", FlowAccALS, func(o *Options) { o.AccTol = 0.5 }},
		{"DP", FlowDP, nil},
		{"DP-SA", FlowDPSA, nil},
	}
	for _, tc := range flows {
		t.Run(tc.name, func(t *testing.T) {
			run := func(threads int) *Result {
				opt := DefaultOptions(tc.flow, metric.MSE, R*R)
				opt.Patterns = 1024
				opt.Seed = 7
				opt.Threads = threads
				opt.MaxIters = 25
				opt.LACs = lac.Options{Constants: true, SASIMI: true}
				if tc.tweak != nil {
					tc.tweak(&opt)
				}
				res, err := Run(context.Background(), g, opt)
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
			// the deterministic StepWork estimate (not wall-clock), so
			// even its phase partition and work counters must agree.
			if serial.Stats.Phase1 != parallel.Stats.Phase1 || serial.Stats.Phase2 != parallel.Stats.Phase2 {
				t.Errorf("analyses: serial %d+%d, parallel %d+%d",
					serial.Stats.Phase1, serial.Stats.Phase2, parallel.Stats.Phase1, parallel.Stats.Phase2)
			}
			if serial.Stats.Rollbacks != parallel.Stats.Rollbacks {
				t.Errorf("Rollbacks: serial %d, parallel %d", serial.Stats.Rollbacks, parallel.Stats.Rollbacks)
			}
			if serial.Stats.Work != parallel.Stats.Work {
				t.Errorf("StepWork: serial %+v, parallel %+v", serial.Stats.Work, parallel.Stats.Work)
			}
			if sn, pn := serial.Graph.NumAnds(), parallel.Graph.NumAnds(); sn != pn {
				t.Errorf("NumAnds: serial %d, parallel %d", sn, pn)
			}
		})
	}
}
