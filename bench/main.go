// Command bench is the repository's benchmark: five workloads over the
// simulated SSD stack, each verified, reporting end-to-end metrics (-trace
// 0) or the per-layer cost ladder (-trace 1). See README.md.
//
//	go run -C bench . -workload NAME -seed N -seconds S -trace 0|1
//	go run -C bench . [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-out FILE]
//	go run -C bench . -compare A.json B.json
//
// The first form runs one workload in this process and ends with one JSON
// line. The second runs every workload, each in a fresh child process of
// the first form. The third judges result file B against baseline A.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in process (default: all, one child process each)")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
		runs    = flag.Int("runs", 1, "all-workload mode: repeat each workload this many times, at seeds seed, seed+1, ...")
		out     = flag.String("out", "", "all-workload mode: write the results to this JSON file")
		compare = flag.Bool("compare", false, "compare two result files: baseline.json change.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *runs, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace, runs int, out string, compare bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected argument %q", args[0])
	case trace != 0 && trace != 1, seconds <= 0, runs < 1:
		return fmt.Errorf("need -trace 0 or 1, -seconds > 0 and -runs >= 1")
	case name == "":
		return runAll(seed, seconds, trace, runs, out)
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	p := params{seed: seed, seconds: seconds, blocks: blocksPerPlane, scale: 1, trace: trace == 1, outDir: "out"}
	rep, err := runOne(w, p)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", w.name, n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d ops failed verification", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// runOne runs workload w once in this process: the untraced end-to-end run
// or the traced ladder.
func runOne(w *workload, p params) (*report, error) {
	rep := &report{Metrics: map[string]value{}}
	if p.trace {
		lad, err := runLadder(w, p, os.Stdout)
		if err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = lad.attempted, lad.failed
		for _, d := range perLayerMetrics {
			rep.Metrics[d.name] = value{lad.values[d.name], d.unit}
		}
		if lad.firstErr != nil {
			fmt.Fprintln(os.Stderr, "bench: first failure:", lad.firstErr)
		}
	} else {
		m, err := endToEnd(w, p)
		if err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed = m.attempted, m.failed
		vals := endToEndValues(m)
		for _, d := range endToEndMetrics {
			rep.Metrics[d.name] = value{vals[d.name], d.unit}
		}
		fmt.Printf("%s samples: %d ops in %d windows of %d, %d wall latencies, %d simulated latencies\n",
			w.name, m.ops, len(m.winS), m.winOps, len(m.lat), len(m.simLat))
		if m.firstErr != nil {
			fmt.Fprintln(os.Stderr, "bench: first failure:", m.firstErr)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}
