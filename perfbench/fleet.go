package main

import (
	"fmt"
	"time"

	"indra"
)

// fleetEval runs the fleet experiment (3 campaigns x 3 policies on 3
// six-service nodes) on the parallel runner, one experiment per
// operation. Round r uses request-stream seed derivedSeed(seed, r): a
// fleet run's work swings by about ±12% with its seed, so a run spreads
// its rounds over several seeds.
type fleetEval struct {
	req     int
	workers int
	seeds   []uint32 // seed of every round run so far
	outs    []string // output of every round
	traced  []string // outputs of the traced rounds
}

func (f *fleetEval) setup() error         { return assemblePrograms() }
func (f *fleetEval) prepare(*bench) error { return nil }
func (f *fleetEval) finish(*bench) error  { return nil }
func (f *fleetEval) close()               {}

func (f *fleetEval) options(seed uint32, workers int) indra.ExpOptions {
	return indra.ExpOptions{Requests: f.req, Seed: seed, Workers: workers}
}

func (f *fleetEval) round(b *bench) roundResult {
	var rr roundResult
	seed := derivedSeed(b.seed, uint64(len(f.seeds)))
	o := f.options(seed, f.workers)
	s := b.tr.begin("workload", fmt.Sprintf("fleet seed=%d", seed), 0, 0)
	o.RunLoop, o.Meter = b.runLoop(s.ID, s.Trace, false), b.meter
	start := time.Now()
	out, err := indra.RunExperiment("fleet", o)
	rr.ops = append(rr.ops, time.Since(start))
	b.tr.end(s)
	if err != nil {
		rr.failed, rr.firstErr = 1, fmt.Errorf("fleet seed=%d: %w", seed, err)
	}
	f.seeds, f.outs = append(f.seeds, seed), append(f.outs, out)
	if b.tr != nil {
		f.traced = append(f.traced, out)
	}
	return rr
}

// check replays the first round on one worker (untimed) and requires
// byte-identical output, then checks the fleet properties on every
// round's output.
func (f *fleetEval) check(*bench) error {
	serial, err := indra.RunExperiment("fleet", f.options(f.seeds[0], 1))
	if err != nil {
		return fmt.Errorf("serial replay: %w", err)
	}
	if err := sameOutputs("serial replay", []string{"fleet"}, f.outs[:1], []string{serial}); err != nil {
		return err
	}
	for i, out := range f.outs {
		if err := checkFleet(out); err != nil {
			return fmt.Errorf("seed %d: %w", f.seeds[i], err)
		}
	}
	return nil
}

// layers adds the warm-boot tally printed in the fleet tables and the
// CPU time spent outside chip.Run.
func (f *fleetEval) layers(b *bench, m metrics, ph *phase) error {
	var hits, misses int
	for _, out := range f.traced {
		h, mi, err := warmTotals(out)
		if err != nil {
			return err
		}
		hits, misses = hits+h, misses+mi
	}
	rounds := float64(len(f.traced))
	m.set("warmboot.hits", float64(hits)/rounds)
	m.set("warmboot.misses", float64(misses)/rounds)
	m.set("fleet.outside_run_s", b.outsideRunS)
	return nil
}
