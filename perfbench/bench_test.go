package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestReportable(t *testing.T) {
	for n, want := range map[int][]float64{
		1: {50}, 39: {50}, 40: {50}, 99: {50}, 100: {50, 90}, 999: {50, 90},
		1000: {50, 99}, 9999: {50, 99}, 10000: {50, 99.9},
	} {
		got := reportable(n)
		if len(got) != len(want) || got[len(got)-1] != want[len(want)-1] {
			t.Errorf("reportable(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func golden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile("../testdata/golden/" + id + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// flip returns s with the byte at the first occurrence of anchor plus
// offset replaced by c.
func flip(t *testing.T, s, anchor string, offset int, c byte) string {
	t.Helper()
	at := strings.Index(s, anchor)
	if at < 0 {
		t.Fatalf("anchor %q not found", anchor)
	}
	b := []byte(s)
	b[at+offset] = c
	return string(b)
}

// Every replay comparison fails whichever output byte is flipped.
func TestSameOutputsFailsOnAnyFlippedByte(t *testing.T) {
	want := golden(t, "table2")
	if err := sameOutputs("replay", []string{"table2"}, []string{want}, []string{want}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		b := []byte(want)
		b[i] ^= 0x01
		if sameOutputs("replay", []string{"table2"}, []string{string(b)}, []string{want}) == nil {
			t.Fatalf("flip at byte %d passed", i)
		}
	}
}

func TestPropertyChecksFailOnFlippedByte(t *testing.T) {
	table2, table3, sweep, fleet := golden(t, "table2"), golden(t, "table3"), golden(t, "faultsweep"), golden(t, "fleet")
	for _, c := range []struct {
		name  string
		check func(string) error
		good  string
		bad   string
	}{
		{"table2 detected", checkTable2, table2, flip(t, table2, "stack-smash    full             true", 33, 'T')},
		{"table2 recovered", checkTable2, table2, flip(t, table2, "return-mismatch                true", 31, 'f')},
		{"table3 indra-delta lowest", checkTable3, table3, flip(t, table3, " 28303", 0, '9')},
		{"devicesweep detected", checkDeviceSweep, sweep, flip(t, sweep, "detected\ndma", 0, 'D')},
		{"fleet served <= logical", checkFleet, fleet, flip(t, fleet, "  93.52", 1, '1')},
		{"fleet lost >= 0", checkFleet, fleet, flip(t, fleet, "    7      0", 3, '-')},
		{"fleet rejuvenation below reactive", checkFleet, fleet, flip(t, fleet, "        9     4", 7, '2')},
		{"fleet tmr serves dos", checkFleet, fleet, flip(t, fleet, "tmr            100.00      0.0", 15, '0')},
	} {
		if err := c.check(c.good); err != nil {
			t.Errorf("%s: unflipped output fails: %v", c.name, err)
		}
		if err := c.check(c.bad); err == nil {
			t.Errorf("%s: flipped output passes", c.name)
		}
	}
}

func TestServedOutputsMustAgree(t *testing.T) {
	z := newServeZipf(1, []string{"fig13"}, 1, 1, 1.1)
	z.recordOutput("k", "abc")
	z.recordOutput("k", "abc")
	if z.badOut != nil {
		t.Fatal(z.badOut)
	}
	z.recordOutput("k", "abd")
	if z.badOut == nil {
		t.Fatal("a flipped served byte passed")
	}
}

// The metric and workload lists match BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	seen := map[string]bool{}
	for _, e := range spec.EndToEnd {
		if !endToEnd[e.Name] || metricUnits[e.Name] != e.Unit {
			t.Errorf("end_to_end %s (%s) is not printed by untraced runs", e.Name, e.Unit)
		}
		seen[e.Name] = true
	}
	for _, e := range spec.PerLayer {
		if endToEnd[e.Name] || metricUnits[e.Name] != e.Unit {
			t.Errorf("per_layer %s (%s) is not printed by traced runs", e.Name, e.Unit)
		}
		seen[e.Name] = true
	}
	for name := range metricUnits {
		if !seen[name] {
			t.Errorf("metric %s is printed but not in BENCHMARK.json", name)
		}
	}
}

// smoke runs w once and returns its result line.
func smoke(t *testing.T, w workloadRunner, trace bool) result {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: "smoke", seed: 5, seconds: 0.001, trace: trace, traceDir: t.TempDir()}
	if err := runOnce(o, w, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("result line: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
	}
	for name, unit := range metricUnits {
		v, ok := r.Metrics[name]
		switch {
		case ok == trace == endToEnd[name]:
			if ok {
				t.Errorf("%s printed by a traced=%v run", name, trace)
			} else {
				t.Errorf("%s missing from a traced=%v run", name, trace)
			}
		case ok && v.Unit != unit:
			t.Errorf("%s unit %q, want %q", name, v.Unit, unit)
		case ok && !trace && !(v.Value > 0):
			t.Errorf("end-to-end %s = %v, want > 0", name, v.Value)
		}
	}
	return r
}

func TestSmokePaperEval(t *testing.T) {
	ids := []string{"table2", "table3", "table4", "faultsweep"}
	smoke(t, newPaperEval(ids, 2), false)
	r := smoke(t, newPaperEval(ids, 2), true)
	if r.Metrics["chip.instret"].Value == 0 || r.Metrics["cache.l1i_misses"].Value == 0 {
		t.Errorf("traced paper-eval counted no simulated work: %v", r.Metrics)
	}
}

func TestSmokeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet smoke takes about a minute")
	}
	r := smoke(t, &fleetEval{req: 2, workers: 2}, true)
	if r.Metrics["warmboot.hits"].Value == 0 || r.Metrics["chip.runs"].Value == 0 {
		t.Errorf("traced fleet counted no warm boots or chip runs: %v", r.Metrics)
	}
}

func TestSmokeServeZipf(t *testing.T) {
	exps := []string{"fig13", "ablation-space"}
	smoke(t, newServeZipf(5, exps, 3, 40, 1.1), false)
	r := smoke(t, newServeZipf(5, exps, 3, 40, 1.1), true)
	m := r.Metrics
	if m["serve.executions"].Value == 0 || m["serve.executions"].Value != m["serve.cache_misses"].Value ||
		m["cluster.proxied"].Value != 40 || m["serve.worker_s"].Value == 0 {
		t.Errorf("traced serve-zipf layer counts are off: %v", m)
	}
}
