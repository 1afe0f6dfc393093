// Command perfbench is the repository's benchmark. One invocation runs
// one workload in its own process and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics:
//
//	perfbench --workload paper-eval --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with --trace 1 they are the per-layer metrics of a
// traced run. --repeat k runs the workload k times in child processes
// (seeds seed..seed+k-1) and prints each metric's median and
// quartiles. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"indra"
	"indra/internal/asm"
	"indra/internal/chip"
	"indra/internal/obs"
	"indra/internal/parallel"
	"indra/internal/workload"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median, which keeps one slow start from moving the figure.
const setupRepeats = 5

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"paper-eval", "fleet", "serve-zipf"}

// newWorkload builds a workload at its benchmark size.
func newWorkload(name string, seed uint64) (workloadRunner, error) {
	switch name {
	case "paper-eval":
		return newPaperEval(paperExperiments(), 8), nil
	case "fleet":
		return &fleetEval{req: 2, workers: runtime.GOMAXPROCS(0)}, nil
	case "serve-zipf":
		return newServeZipf(seed, serveExperiments, 10, 1000, 1.1), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// workloadRunner is one workload. The runner calls setup several
// times, then repeats prepare → round → finish; only round is timed.
type workloadRunner interface {
	// setup does the work a run does once before its timed phase. It
	// may be called several times; the last call's state is kept.
	setup() error
	// prepare readies one round outside the timed section.
	prepare(b *bench) error
	// round runs one round of the workload's operations.
	round(b *bench) roundResult
	// finish tears one round down outside the timed section.
	finish(b *bench) error
	// check verifies the outputs of every round against a second,
	// independent execution and the properties the outputs must show.
	check(b *bench) error
	// layers adds the workload's own per-layer metrics after the
	// traced rounds.
	layers(b *bench, m metrics, ph *phase) error
	close()
}

// roundResult is what one round reports: the latency of each
// operation attempted, the failed count, and optional per-class
// latencies (cache hits and misses for a server).
type roundResult struct {
	ops      []time.Duration
	failed   int
	firstErr error
	classes  map[string][]time.Duration
}

// bench is the state one run shares with its workload.
type bench struct {
	seed    uint64
	tr      *tracer         // nil when untraced
	obs     *obs.Suite      // per-cell metrics, traced rounds only
	meter   *parallel.Meter // runner statistics, traced rounds only
	instret atomic.Uint64   // simulated instructions retired through runLoop
	// outsideRunS is the traced rounds' CPU seconds per round outside
	// chip.Run, from the CPU profile.
	outsideRunS float64
}

// runLoop returns the pass-through RunLoop every chip run goes
// through: it counts retired instructions and, when traced, records a
// chip.Run span under parent. scalar forces the chip onto the scalar
// Step loop (the block-engine replay check).
func (b *bench) runLoop(parent, trace uint64, scalar bool) indra.RunLoopFunc {
	return func(ch *chip.Chip, maxInstr uint64) (*chip.Chip, chip.RunResult, error) {
		if scalar {
			ch.SetScalarDispatch(true)
		}
		s := b.tr.begin("chip.Run", "", parent, trace)
		res, err := ch.Run(maxInstr)
		b.tr.end(s)
		b.instret.Add(res.Instret)
		return ch, res, err
	}
}

// derivedSeed maps the benchmark seed and a stream number to an
// experiment seed in 1..2^31-1 (splitmix64), so each experiment or
// cell draws its own request stream and the work of a run does not
// swing with one shared stream.
func derivedSeed(seed, stream uint64) uint32 {
	z := (seed<<32 | seed>>32) ^ stream
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z%(1<<31-1)) + 1
}

// assemblePrograms generates and assembles the six services' programs
// — the set-up every workload shares — and leaves them in the
// program cache for the timed phase.
func assemblePrograms() error {
	for _, name := range workload.Names() {
		p := workload.MustByName(name)
		if _, err := asm.Assemble(p.GenerateSource()); err != nil {
			return fmt.Errorf("assemble %s: %w", name, err)
		}
		if _, err := p.BuildProgram(); err != nil {
			return err
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	repeat   int
	traceDir string // where a traced run writes its spans
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.repeat > 0 {
		err = repeat(o, os.Stdout)
	} else {
		var w workloadRunner
		if w, err = newWorkload(o.workload, o.seed); err == nil {
			err = runOnce(o, w, os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed (same seed, same inputs)")
	secs := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	rep := fs.Int("repeat", 0, "run the workload this many times and print medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *secs <= 0 || *trace < 0 || *trace > 1 || *rep < 0 {
		return options{}, errors.New("want --seconds > 0, --trace 0|1, --repeat >= 0")
	}
	return options{workload: *name, seed: *seed, seconds: *secs, trace: *trace == 1, repeat: *rep,
		traceDir: ".bench_build/trace"}, nil
}

// moreRounds reports whether another round fits the timed phase: one
// is always run, and another starts while it would end nearer the
// target length than not.
func moreRounds(elapsed, last time.Duration, target float64) bool {
	return (elapsed + last/2).Seconds() < target
}

// phase is the runner's tally of the rounds of one timed phase.
type phase struct {
	walls, allocs []float64
	ops           []float64
	classes       map[string][]time.Duration
	attempted     int
	failed        int
	firstErr      error
	instret       uint64
	gcCycles      uint32
	gcPause       time.Duration
}

// nsPerInstr is the phase's wall time per simulated instruction.
func (ph *phase) nsPerInstr() float64 { return sum(ph.walls) * 1e9 / float64(ph.instret) }

// runPhase repeats rounds until the target length is reached.
func runPhase(b *bench, w workloadRunner, target float64) (*phase, error) {
	ph := &phase{classes: map[string][]time.Duration{}}
	var elapsed, last time.Duration
	for len(ph.walls) == 0 || moreRounds(elapsed, last, target) {
		if err := w.prepare(b); err != nil {
			return nil, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		i0 := b.instret.Load()
		start := time.Now()
		rr := w.round(b)
		last = time.Since(start)
		runtime.ReadMemStats(&m1)
		elapsed += last
		ph.instret += b.instret.Load() - i0
		ph.walls = append(ph.walls, last.Seconds())
		ph.allocs = append(ph.allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
		ph.gcCycles += m1.NumGC - m0.NumGC
		ph.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		ph.ops = append(ph.ops, seconds(rr.ops)...)
		ph.attempted += len(rr.ops)
		ph.failed += rr.failed
		if ph.firstErr == nil {
			ph.firstErr = rr.firstErr
		}
		for c, ds := range rr.classes {
			ph.classes[c] = append(ph.classes[c], ds...)
		}
		if err := w.finish(b); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// runOnce runs one workload and prints its result line last.
func runOnce(o options, w workloadRunner, out io.Writer) error {
	defer w.close()
	b := &bench{seed: o.seed}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res := result{Metrics: metrics{}}
	var ph *phase
	var err error
	if o.trace {
		ph, err = tracedRun(o, b, w, res.Metrics, out)
	} else {
		ph, err = runPhase(b, w, o.seconds)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if ph.firstErr != nil {
		fmt.Fprintf(out, "first failed operation: %v\n", ph.firstErr)
	}

	res.Correct = true
	if err := w.check(b); err != nil {
		res.Correct = false
		fmt.Fprintf(out, "CHECK FAILED: %v\n", err)
	}

	if !o.trace {
		m := res.Metrics
		m.set("setup_s", median(setups))
		m.set("sim_minstr_per_s", float64(ph.instret)/1e6/sum(ph.walls))
		m.set("alloc_b_per_instr", sum(ph.allocs)/float64(ph.instret))
		fmt.Fprintf(out, "%s seed=%d: rounds of %.3gs, %d operations (median %.3fms), %d failed\n",
			o.workload, o.seed, ph.walls, ph.attempted, median(ph.ops)*1e3, ph.failed)
		printClasses(out, ph.classes)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(enc))
	return nil
}

// printClasses prints each latency class at the percentiles its
// sample count supports.
func printClasses(out io.Writer, classes map[string][]time.Duration) {
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		xs := seconds(classes[c])
		var parts []string
		for _, p := range reportable(len(xs)) {
			parts = append(parts, fmt.Sprintf("p%g=%.3fms", p, percentile(xs, p)*1e3))
		}
		fmt.Fprintf(out, "  %s latency (n=%d): %s\n", c, len(xs), strings.Join(parts, " "))
	}
}

// tracedRun runs one untraced round, then traced rounds for the
// target length with spans, per-cell metrics and a CPU profile, and
// fills the per-layer metrics.
func tracedRun(o options, b *bench, w workloadRunner, m metrics, out io.Writer) (*phase, error) {
	base, err := runPhase(b, w, 0)
	if err != nil {
		return nil, err
	}
	b.tr, b.obs, b.meter = newTracer(), obs.NewSuite(), parallel.NewMeter()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ph, err := runPhase(b, w, o.seconds)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	rounds := float64(len(ph.walls))
	perRound := func(x float64) float64 { return x / rounds }

	// Every per-layer metric is printed; the ones a workload does not
	// exercise read 0.
	for name := range metricUnits {
		if !endToEnd[name] {
			m.set(name, 0)
		}
	}
	chipD, chipN := b.tr.total("chip.Run")
	m.set("chip.run_s", perRound(chipD.Seconds()))
	m.set("chip.runs", perRound(float64(chipN)))
	m.set("chip.instret", perRound(float64(ph.instret)))
	if ph.instret > 0 {
		m.set("chip.host_ns_per_instr", float64(chipD.Nanoseconds())/float64(ph.instret))
	}
	m.set("runtime.gc_cycles", perRound(float64(ph.gcCycles)))
	m.set("runtime.gc_pause_s", perRound(ph.gcPause.Seconds()))
	ms := b.meter.Stats()
	m.set("parallel.jobs", perRound(float64(ms.Jobs)))
	m.set("parallel.busy_s", perRound(ms.Work.Seconds()))
	m.set("parallel.busy_ratio", ms.Work.Seconds()/sum(ph.walls)/float64(runtime.GOMAXPROCS(0)))
	cp, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, pkg := range profilePackages {
		m.set(pkg+".self_s", perRound(cp.self[pkg]))
	}
	b.outsideRunS = perRound(cp.outsideRun)
	if err := w.layers(b, m, ph); err != nil {
		return nil, err
	}
	// Host time per simulated instruction compares the phases even when
	// their rounds simulate different inputs (the fleet's per-round seeds).
	untraced, traced := base.nsPerInstr(), ph.nsPerInstr()
	m.set("trace.untraced_ns_per_instr", untraced)
	m.set("trace.traced_ns_per_instr", traced)
	fmt.Fprintf(out, "%s seed=%d traced: rounds of %.3gs; tracing overhead: %.1f ns per simulated instruction traced against %.1f untraced (%+.1f%%)\n",
		o.workload, o.seed, ph.walls, traced, untraced, (traced/untraced-1)*100)
	printClasses(out, ph.classes)
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := b.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	// The attempted/failed tally covers the untraced round too.
	ph.attempted += base.attempted
	ph.failed += base.failed
	if ph.firstErr == nil {
		ph.firstErr = base.firstErr
	}
	return ph, nil
}

// repeat runs the workload o.repeat times in child processes with
// consecutive seeds and prints each metric's median and quartiles with
// the quartile spread as a share of the median.
func repeat(o options, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var attempted, failed []int
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("run seed %d: result line: %w", seed, err)
		}
		if !r.Correct {
			return fmt.Errorf("run seed %d: output check failed:\n%s", seed, raw)
		}
		fmt.Fprintf(out, "seed %d: %s\n", seed, lines[len(lines)-1])
		attempted, failed = append(attempted, r.Attempted), append(failed, r.Failed)
		for name, v := range r.Metrics {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s: %d runs of %gs; attempted %v failed %v\n", o.workload, o.repeat, o.seconds, attempted, failed)
	fmt.Fprintf(out, "%-28s %-10s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, n := range names {
		q1, q2, q3 := quartiles(values[n])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(out, "%-28s %-10s %12.4f %12.4f %12.4f %7.1f%%\n", n, units[n], q1, q2, q3, spread*100)
	}
	return nil
}
