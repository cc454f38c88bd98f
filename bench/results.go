package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// resultFile is what -out writes and -compare reads: for every workload
// and metric the per-run values with their median, range and spread.
type resultFile struct {
	Seed      uint64                     `json:"seed"` // run i used seed+i
	Seconds   float64                    `json:"seconds"`
	Trace     int                        `json:"trace"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                      `json:"attempted"` // summed over runs
	Failed    int                      `json:"failed"`
	Metrics   map[string]*metricResult `json:"metrics"`
}

type metricResult struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // interquartile range / median
	Runs   []float64 `json:"runs"`
}

// runAll runs every workload runs times, each run in a fresh child process
// so that set-up time, peak memory and heap state are one workload's alone.
// Run i of every workload uses seed+i, so the spread covers seeds too.
func runAll(seed uint64, seconds float64, trace, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := &resultFile{Seed: seed, Seconds: seconds, Trace: trace, Runs: runs, Workloads: map[string]*workloadResult{}}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			rep, perr := lastLine(stdout, os.Stdout)
			if perr != nil {
				return fmt.Errorf("%s: %w (exit: %v)", w.name, perr, err)
			}
			wr := res.Workloads[w.name]
			if wr == nil {
				wr = &workloadResult{Metrics: map[string]*metricResult{}}
				res.Workloads[w.name] = wr
			}
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			for name, v := range rep.Metrics {
				mr := wr.Metrics[name]
				if mr == nil {
					mr = &metricResult{Unit: v.Unit}
					wr.Metrics[name] = mr
				}
				mr.Runs = append(mr.Runs, v.Value)
			}
		}
	}
	failed := 0
	for _, wr := range res.Workloads {
		failed += wr.Failed
		for _, mr := range wr.Metrics {
			s := sorted(mr.Runs)
			mr.Median, mr.Min, mr.Max, mr.Spread = median(s), s[0], s[len(s)-1], spread(s)
		}
	}
	if runs > 1 {
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "workload\tmetric\tmedian\tunit\tmin\tmax\tspread\n")
		for _, w := range workloads {
			for _, d := range metricTable(trace) {
				if mr := res.Workloads[w.name].Metrics[d.name]; mr != nil {
					fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.6g\t%.6g\t%.1f%%\n", w.name, d.name, mr.Median, mr.Unit, mr.Min, mr.Max, 100*mr.Spread)
				}
			}
		}
		tw.Flush()
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed verification", failed)
	}
	return nil
}

func metricTable(trace int) []metricDef {
	if trace == 1 {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// lastLine copies every line of a child's output but the last to w and
// decodes the last as the child's report.
func lastLine(stdout []byte, w io.Writer) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(w, "%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	rep := &report{}
	if err := json.Unmarshal(last, rep); err != nil {
		return nil, fmt.Errorf("no report on the last line: %w", err)
	}
	return rep, nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &resultFile{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// verdict judges one metric of a change against the baseline: "worse" or
// "better" when the medians differ by more than the bound, "unresolved"
// when the baseline's own runs spread wider than the bound (so the bound
// cannot be told from noise), "ok" otherwise.
func verdict(d metricDef, base, change *metricResult) (string, float64) {
	worse := ratio(change.Median-base.Median, base.Median)
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case base.Spread > d.bound:
		return "unresolved", worse
	case worse > d.bound:
		return "worse", worse
	case worse < -d.bound:
		return "better", worse
	}
	return "ok", worse
}

// compareFiles prints one row per workload and end-to-end metric and
// returns an error if any row is worse or any op of the change failed.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase\tchange\tunit\tworse by\tbound\tbase spread\tverdict\n")
	bad := 0
	for _, wl := range workloads {
		b, c := base.Workloads[wl.name], change.Workloads[wl.name]
		if b == nil || c == nil {
			return fmt.Errorf("workload %s is missing from a result file", wl.name)
		}
		for _, d := range endToEndMetrics {
			bm, cm := b.Metrics[d.name], c.Metrics[d.name]
			if bm == nil || cm == nil {
				return fmt.Errorf("%s %s is missing from a result file", wl.name, d.name)
			}
			v, by := verdict(d, bm, cm)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				wl.name, d.name, bm.Median, cm.Median, d.unit, 100*by, 100*d.bound, 100*bm.Spread, v)
		}
		v := "ok"
		if c.Failed > 0 {
			v = "worse"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\tcount\t\t0\t\t%s\n", wl.name, b.Failed, c.Failed, v)
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d rows worse than the baseline", bad)
	}
	return nil
}
