package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// small is every workload shrunk to test size: a 12-block device and a
// timed phase of a few windows.
func small(t *testing.T) params {
	return params{seed: 1, seconds: 0.01, blocks: 12, scale: 0.002, outDir: t.TempDir()}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			p := small(t)
			m := newMeasurement(w, w.top, p)
			if err := measure(m, w, w.top, p, time.Now()); err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 {
				t.Fatalf("%d of %d ops failed, first: %v", m.failed, m.attempted, m.firstErr)
			}
			vals := endToEndValues(m)
			for _, d := range endToEndMetrics {
				if v, ok := vals[d.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
			if len(vals) != len(endToEndMetrics) {
				t.Errorf("%d values for %d metrics", len(vals), len(endToEndMetrics))
			}
		})
	}
}

func TestEndToEndReportsMedianSetup(t *testing.T) {
	m, err := endToEnd(findWorkload("dev-churn"), small(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 || m.setupS <= 0 {
		t.Fatalf("failed=%d setup=%v", m.failed, m.setupS)
	}
}

// A single submitter makes the simulator deterministic: the simulated-clock
// metrics of dev-churn must repeat bit for bit, which is what lets a later
// wall-clock-only change be checked for leaving them alone.
func TestDevChurnSimulatedMetricsRepeatExactly(t *testing.T) {
	w := findWorkload("dev-churn")
	var runs [2]map[string]float64
	for i := range runs {
		p := small(t)
		m := newMeasurement(w, w.top, p)
		if err := measure(m, w, w.top, p, time.Now()); err != nil {
			t.Fatal(err)
		}
		runs[i] = endToEndValues(m)
	}
	for _, name := range []string{"sim_p999_us", "waf", "extra_pgm_us_per_flush"} {
		if a, b := runs[0][name], runs[1][name]; a != b || a == 0 {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
}

func TestLadderEmitsEveryPerLayerMetric(t *testing.T) {
	for _, name := range []string{"vol-mixed-4x2"} { // the one workload that climbs every rung
		t.Run(name, func(t *testing.T) {
			w, p := findWorkload(name), small(t)
			p.trace = true
			p.seconds *= float64(w.top + 2)
			lad, err := runLadder(w, p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if lad.failed != 0 {
				t.Fatalf("%d of %d ops failed, first: %v", lad.failed, lad.attempted, lad.firstErr)
			}
			for _, d := range perLayerMetrics {
				if v, ok := lad.values[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.name, v)
				}
			}
			if len(lad.values) != len(perLayerMetrics) {
				t.Errorf("%d values for %d metrics", len(lad.values), len(perLayerMetrics))
			}
			for r := rungFTL; r <= w.top; r++ {
				if v := lad.values[r.layer()+".us_per_op"]; !(v > 0) {
					t.Errorf("rung %s costs %v us/op", r, v)
				}
			}
			data, err := os.ReadFile(filepath.Join(p.outDir, name+".spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			var s span
			if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &s); err != nil || s.EndNS < s.StartNS || s.Name == "" {
				t.Errorf("first span %+v: %v", s, err)
			}
		})
	}
}

func TestWindowQuantiles(t *testing.T) {
	// Three windows of 100 samples whose P99s are 99, 1000 and 99 µs: the
	// median of the window P99s ignores the one bad window, where the P99 of
	// all 300 samples would report it.
	var lat []uint32
	for win := 0; win < 3; win++ {
		for i := 1; i <= 100; i++ {
			v := uint32(i * 1000)
			if win == 1 && i >= 95 {
				v = 1000 * 1000
			}
			lat = append(lat, v)
		}
	}
	if got := windowQuantiles(lat, 100, 0.99); got != 99 {
		t.Errorf("windowed P99 = %v, want 99", got)
	}
	if got := windowQuantiles(lat, 100, 0.5); got != 50 {
		t.Errorf("windowed P50 = %v, want 50", got)
	}
	if got := windowQuantiles(lat, 300, 0.99); got != 1000 {
		t.Errorf("whole-run P99 = %v, want 1000", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := spread([]float64{1, 2, 4}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("spread = %v, want 1.5", got)
	}
}

// checkerFailures drives a mixed stream against the version-only fake and
// returns how many ops the shadow-map checker refused.
func checkerFailures(payload int, corrupt func([]byte)) (failed, attempted int) {
	w := workload{depth: 8, writeFrac: 0.5, payload: payload, gapUS: 1}
	gen := newGenerator(&w, 7, 256)
	nt := newNullTarget(&w, gen, false)
	nt.corrupt = corrupt
	d := newDriver(&w, rungTCP, nt, gen)
	d.fill()
	d.setDepth(w.depth)
	for i := 0; i < 4096; i++ {
		d.issue(gen.next())
	}
	d.sweep(256)
	return d.failed, d.attempted
}

func TestCheckerCatchesCorruptPayloads(t *testing.T) {
	if failed, n := checkerFailures(4096, nil); failed != 0 || n != 256+4096+256 {
		t.Fatalf("clean run: %d of %d failed", failed, n)
	}
	for name, corrupt := range map[string]func([]byte){
		"stale version":  func(b []byte) { stamp(b, int64(binary.LittleEndian.Uint64(b)), 0) },
		"wrong lpn":      func(b []byte) { b[0] ^= 1 },
		"flipped filler": func(b []byte) { b[len(b)/2] ^= 0x10 },
		"flipped tail":   func(b []byte) { b[len(b)-1] ^= 0x80 },
	} {
		for _, size := range []int{64, 4096} {
			failed, n := checkerFailures(size, corrupt)
			reads := n - 256 - 2048 // fill and about half the stream are writes
			if failed < reads/2 {
				t.Errorf("%s, %d B: caught %d of about %d reads", name, size, failed, reads)
			}
		}
	}
	failed, _ := checkerFailures(64, func(b []byte) { copy(b, make([]byte, 32)) })
	if failed == 0 {
		t.Error("zeroed header not caught")
	}
}

func TestCalibrationSeesOnlyTheHarness(t *testing.T) {
	// Over the wire the generator reuses its buffers: nothing per op. In
	// process the device keeps every write's payload: one allocation each.
	if cal := calibrate(findWorkload("wire-write-qd32"), rungTCP, false); cal[0] > 0.01 {
		t.Errorf("wire harness allocates %v per op", cal[0])
	}
	w := findWorkload("dev-churn")
	if cal := calibrate(w, rungSSD, true); math.Abs(cal[0]-w.writeFrac) > 0.02 {
		t.Errorf("in-process harness allocates %v per op, want the write share %v", cal[0], w.writeFrac)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{"lat_p99_us", "us", "lower", 0.15}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.07}
	for _, c := range []struct {
		d            metricDef
		base, change float64
		spread       float64
		want         string
	}{
		{lower, 100, 110, 0.02, "ok"},
		{lower, 100, 116, 0.02, "worse"},
		{lower, 100, 80, 0.02, "better"},
		{lower, 100, 130, 0.20, "unresolved"},
		{higher, 1000, 940, 0.01, "ok"},
		{higher, 1000, 920, 0.01, "worse"},
		{higher, 1000, 1100, 0.01, "better"},
		{higher, 1000, 1100, 0.08, "unresolved"},
	} {
		got, _ := verdict(c.d, &metricResult{Median: c.base, Spread: c.spread}, &metricResult{Median: c.change})
		if got != c.want {
			t.Errorf("%s %v -> %v at spread %v: %s, want %s", c.d.name, c.base, c.change, c.spread, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	file := func(name string, opsPerS float64, failed int) string {
		res := resultFile{Runs: 1, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{Failed: failed, Metrics: map[string]*metricResult{}}
			for _, d := range endToEndMetrics {
				wr.Metrics[d.name] = &metricResult{Unit: d.unit, Median: 100}
			}
			wr.Metrics["ops_per_s"].Median = opsPerS
			res.Workloads[w.name] = wr
		}
		data, _ := json.Marshal(res)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base.json", 100, 0)
	var out bytes.Buffer
	if err := compareFiles(&out, base, file("same.json", 100, 0)); err != nil {
		t.Errorf("identical files: %v\n%s", err, &out)
	}
	if n := strings.Count(out.String(), "\n"); n != 1+len(workloads)*(len(endToEndMetrics)+1) {
		t.Errorf("%d lines, want a header and one row per workload and metric plus its failed row", n)
	}
	out.Reset()
	if err := compareFiles(&out, base, file("slow.json", 50, 0)); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("half the ops/s passed: %v\n%s", err, &out)
	}
	if err := compareFiles(io.Discard, base, file("broken.json", 100, 3)); err == nil {
		t.Error("failed ops passed")
	}
}

func TestMemConn(t *testing.T) {
	a, b := newMemConnPair()
	msg := make([]byte, 200<<10) // more than the 64 KiB buffer: the writer must block and resume
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Write(msg)
		done <- err
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read back: %v, equal=%v", err, bytes.Equal(got, msg))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The server's shutdown kick: a deadline of now unblocks a parked reader.
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.SetReadDeadline(time.Now())
	}()
	if _, err := b.Read(got); !os.IsTimeout(err) {
		t.Errorf("read after deadline: %v, want a timeout", err)
	}
	a.Close()
	b.SetReadDeadline(time.Time{})
	if _, err := b.Read(got); err != io.EOF {
		t.Errorf("read after close: %v, want EOF", err)
	}
}

// BENCHMARK.json repeats the tables in this package for the driver; they
// must not drift apart.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Seconds   int      `json:"run_seconds"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || file.Seconds < 1 || file.Seconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.Seconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, want %s / %s", i, got, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics, true)
	check("per_layer", file.PerLayer, perLayerMetrics, false)
}
