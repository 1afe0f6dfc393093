package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"indra"
	"indra/internal/parallel"
)

// paperExperiments is every registered experiment except the fleet,
// which is its own workload: the single-core paper evaluation.
func paperExperiments() []string {
	var ids []string
	for _, id := range indra.Experiments() {
		if id != "fleet" {
			ids = append(ids, id)
		}
	}
	return ids
}

// outputRecord keeps a workload's first round of outputs and notes
// the first later round that disagrees with it.
type outputRecord struct {
	first    []string
	mismatch error
}

func (r *outputRecord) add(ids, outs []string) {
	if r.first == nil {
		r.first = outs
		return
	}
	if r.mismatch == nil {
		r.mismatch = sameOutputs("round replay", ids, outs, r.first)
	}
}

// paperEval runs the paper's experiments serially, one experiment per
// operation.
type paperEval struct {
	ids  []string
	req  int
	outs outputRecord
}

func newPaperEval(ids []string, req int) *paperEval { return &paperEval{ids: ids, req: req} }

// seed is experiment i's request-stream seed.
func (p *paperEval) seed(b *bench, i int) uint32 { return derivedSeed(b.seed, uint64(i)) }

func (p *paperEval) setup() error         { return assemblePrograms() }
func (p *paperEval) prepare(*bench) error { return nil }
func (p *paperEval) finish(*bench) error  { return nil }
func (p *paperEval) close()               {}

func (p *paperEval) round(b *bench) roundResult {
	var rr roundResult
	root := b.tr.begin("workload", "paper-eval", 0, 0)
	outs := make([]string, len(p.ids))
	for i, id := range p.ids {
		s := b.tr.begin("experiment", id, root.ID, 0)
		start := time.Now()
		out, err := indra.RunExperiment(id, indra.ExpOptions{Requests: p.req, Seed: p.seed(b, i), Workers: 1,
			RunLoop: b.runLoop(s.ID, s.Trace, false), Obs: b.obs, Meter: b.meter})
		rr.ops = append(rr.ops, time.Since(start))
		b.tr.end(s)
		if err != nil {
			rr.failed++
			if rr.firstErr == nil {
				rr.firstErr = fmt.Errorf("%s: %w", id, err)
			}
		}
		outs[i] = out
	}
	b.tr.end(root)
	p.outs.add(p.ids, outs)
	return rr
}

// check replays every experiment with each chip forced onto the
// scalar Step loop (on every CPU, untimed) and requires byte-identical
// output, then checks the paper's Table 2, Table 3 and DeviceSweep
// properties on the timed outputs.
func (p *paperEval) check(b *bench) error {
	if p.outs.mismatch != nil {
		return p.outs.mismatch
	}
	scalar, err := parallel.Run(parallel.Pool{Workers: runtime.GOMAXPROCS(0)}, p.ids, func(i int, id string) (string, error) {
		return indra.RunExperiment(id, indra.ExpOptions{Requests: p.req, Seed: p.seed(b, i), Workers: 1, RunLoop: b.runLoop(0, 0, true)})
	})
	if err != nil {
		return fmt.Errorf("scalar replay: %w", err)
	}
	if err := sameOutputs("scalar replay", p.ids, p.outs.first, scalar); err != nil {
		return err
	}
	return checkPaperProperties(p.ids, p.outs.first)
}

var paperChecks = map[string]func(string) error{
	"table2":     checkTable2,
	"table3":     checkTable3,
	"faultsweep": checkDeviceSweep,
}

func checkPaperProperties(ids, outs []string) error {
	for i, id := range ids {
		if c := paperChecks[id]; c != nil {
			if err := c(outs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// layers adds the simulated-work counts of the traced rounds' cells
// (summed over slots) and the CPU time spent outside chip.Run.
func (p *paperEval) layers(b *bench, m metrics, ph *phase) error {
	rounds := len(ph.walls)
	perRound := func(x uint64) float64 { return float64(x) / float64(rounds) }
	merged := b.obs.Merged()
	sum := func(match func(string) bool) uint64 {
		var t uint64
		for name, v := range merged.Counters {
			if match(name) {
				t += v
			}
		}
		return t
	}
	suffix := func(s string) func(string) bool {
		return func(n string) bool { return n == s || strings.HasSuffix(n, "."+s) }
	}
	for metric, counter := range map[string]string{
		"cache.l1i_misses":         "l1i.misses",
		"cache.l1d_misses":         "l1d.misses",
		"cache.l2_misses":          "l2.misses",
		"dram.accesses":            "dram.accesses",
		"dram.row_hits":            "dram.row_hits",
		"fifo.pushes":              "fifo.pushes",
		"fifo.stall_cycles":        "fifo.stall_cycles",
		"monitor.cycles":           "monitor.cycles",
		"monitor.violations":       "monitor.violations",
		"checkpoint.line_backups":  "ckpt.line_backups",
		"checkpoint.backup_cycles": "ckpt.backup_cycles",
	} {
		m.set(metric, perRound(sum(suffix(counter))))
	}
	m.set("monitor.records", perRound(sum(func(n string) bool { return strings.HasPrefix(n, "monitor.records.") })))
	sums, err := b.obs.Summaries()
	if err != nil {
		return err
	}
	var cycles uint64
	for _, s := range sums {
		cycles += s.Final.Cycle
	}
	m.set("chip.sim_cycles", perRound(cycles))
	m.set("indra.outside_run_s", b.outsideRunS)
	return nil
}
