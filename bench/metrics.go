package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end table is the
// contract later changes are judged by; BENCHMARK.json repeats it and a
// test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline median a change may worsen it by
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.12},
	{"lat_p50_us", "us", "lower", 0.08},
	{"lat_p99_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"max_rss_mb", "MiB", "lower", 0.20},
	{"sim_p999_us", "us", "lower", 0.15},
	{"waf", "ratio", "lower", 0.02},
	{"extra_pgm_us_per_flush", "us", "lower", 0.05},
}

// value is one metric reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of an ascending slice: the
// smallest element with at least q of the sample at or below it.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)]
}

// windowQuantiles splits lat (ns, in issue order) into consecutive windows
// of n samples and returns the median over windows of each window's q-th
// quantile, in µs. A whole-run P99 is set by the one worst stretch of the
// run; the median of window P99s is what most of the run looked like.
func windowQuantiles(lat []uint32, n int, q float64) float64 {
	var per []float64
	buf := make([]float64, n)
	for ; len(lat) >= n; lat = lat[n:] {
		for i, v := range lat[:n] {
			buf[i] = float64(v) / 1e3
		}
		sort.Float64s(buf)
		per = append(per, quantile(buf, q))
	}
	return median(per)
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(n=4)
// computes them (exclusive method) — the steadiness measure of the
// benchmark's contract.
func spread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th quartile
		j := min(max(k*(n+1)/4, 1), n-1)
		d := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	m := at(2)
	if m == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usPerOp is the median over windows of wall time per op, in µs.
func (m *measurement) usPerOp() float64 {
	perWin := make([]float64, len(m.winS))
	for i, s := range m.winS {
		perWin[i] = s * 1e6 / float64(m.winOps)
	}
	return median(perWin)
}

// cpuPerOp is the process's user+sys CPU time over the timed phase per op,
// in µs.
func (m *measurement) cpuPerOp() float64 {
	return float64(m.end.userNS+m.end.sysNS-m.start.userNS-m.start.sysNS) / 1e3 / float64(m.ops)
}

// allocsPerOp is the process's heap allocations over the timed phase per
// op, less the harness's own.
func (m *measurement) allocsPerOp() float64 {
	return float64(m.end.mallocs-m.start.mallocs)/float64(m.ops) - m.cal[0]
}

// endToEndValues derives the end-to-end metrics from an untraced run.
func endToEndValues(m *measurement) map[string]float64 {
	c := m.atSim
	return map[string]float64{
		"setup_s":                m.setupS,
		"ops_per_s":              1e6 / m.usPerOp(),
		"cpu_us_per_op":          m.cpuPerOp(),
		"lat_p50_us":             windowQuantiles(m.lat, m.winOps/m.sample, 0.50),
		"lat_p99_us":             windowQuantiles(m.lat, m.winOps/m.sample, 0.99),
		"allocs_per_op":          m.allocsPerOp(),
		"alloc_bytes_per_op":     float64(m.end.bytes-m.start.bytes)/float64(m.ops) - m.cal[1],
		"max_rss_mb":             float64(m.end.maxRSSKiB) / 1024,
		"sim_p999_us":            quantile(m.simLat, 0.999),
		"waf":                    ratio(float64(c.ftl.HostWrites+c.ftl.GCWrites), float64(c.ftl.HostWrites)),
		"extra_pgm_us_per_flush": ratio(c.ftl.ExtraPgm, float64(c.ftl.Flushes)),
	}
}
