// Command sbsim runs the paper-reproduction experiments: every table and
// figure of the evaluation section, plus overhead analyses and ablations.
//
// Usage:
//
//	sbsim -list
//	sbsim -id table5 [-quick] [-pe 0,1000,3000] [-blocks 400] [-groups 6] [-seed 1]
//	sbsim -all -quick
//	sbsim -all -quick -parallel 4
//
// -parallel N runs the sweep's (P/E step × lane group) tasks on N
// goroutines; each task's jitter stream is offset to where the serial run
// would have it, so the results are byte-identical to -parallel 0. The
// `make check` gate runs the suite under the race detector to keep this
// path (and the concurrent device front end) race-clean.
//
// -metrics prints the telemetry registry to stderr (or -metrics-out FILE),
// keeping piped experiment tables clean. -attr FILE writes the straggler
// attribution gathered across the device-level experiments. -http ADDR
// serves live /metrics, /healthz and /debug/pprof while experiments run.
// -cpuprofile/-memprofile write offline pprof profiles of the whole run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"superfast/internal/experiments"
	"superfast/internal/stats"
	"superfast/internal/telemetry"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment ids and exit")
		id       = flag.String("id", "", "experiment id to run")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "use the reduced quick configuration")
		seed     = flag.Uint64("seed", 0, "override model seed (0 = default)")
		blocks   = flag.Int("blocks", 0, "override blocks per lane (0 = default)")
		groups   = flag.Int("groups", 0, "override number of lane groups (0 = all)")
		peList   = flag.String("pe", "", "override P/E steps, comma separated (e.g. 0,1000,3000)")
		csvDir   = flag.String("csv", "", "also write tables and series as CSV files into this directory")
		par      = flag.Int("parallel", 0, "run sweep tasks on N goroutines (0 = serial)")
		met      = flag.Bool("metrics", false, "print sweep telemetry (task counters, extra-latency digests) at exit (stderr)")
		metOut   = flag.String("metrics-out", "", "write the -metrics dump to FILE instead of stderr")
		attrOut  = flag.String("attr", "", "write the straggler attribution report (JSON) gathered across experiments to FILE")
		attrTopK = flag.Int("attr-topk", 20, "straggler blocks kept in the -attr report (0 = all)")
		httpAddr = flag.String("http", "", "serve /metrics, /healthz, /debug/pprof (plus /attribution with -attr) on ADDR while experiments run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to FILE")
		memProf  = flag.String("memprofile", "", "write a heap profile to FILE at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sbsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sbsim: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-20s %s\n", id, experiments.Describe(id))
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *blocks > 0 {
		cfg.BlocksPerLane = *blocks
	}
	if *groups > 0 {
		cfg.Groups = *groups
	}
	if *peList != "" {
		steps, err := parseInts(*peList)
		if err != nil {
			fatalf("bad -pe: %v", err)
		}
		cfg.PESteps = steps
	}
	cfg.Parallel = *par
	var reg *telemetry.Metrics
	if *met || *metOut != "" || *httpAddr != "" {
		reg = telemetry.New()
		cfg.Metrics = reg
	}
	var attr *telemetry.Attribution
	if *attrOut != "" {
		attr = telemetry.NewAttribution()
		cfg.Attr = attr
	}
	if *httpAddr != "" {
		srv, addr, err := telemetry.Serve(*httpAddr, telemetry.Routes(reg, nil, attr, nil))
		if err != nil {
			fatalf("-http: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sbsim: serving telemetry on http://%s/\n", addr)
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *id != "":
		ids = []string{*id}
	default:
		fmt.Fprintln(os.Stderr, "sbsim: need -id, -all or -list")
		flag.Usage()
		os.Exit(2)
	}

	for _, id := range ids {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		fmt.Println(res.String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				fatalf("%s: %v", id, err)
			}
		}
	}
	if attr != nil {
		out, err := os.Create(*attrOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := attr.WriteJSON(out, *attrTopK); err != nil {
			out.Close()
			fatalf("write attribution: %v", err)
		}
		if err := out.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "sbsim: wrote attribution of %d multi-plane commands to %s\n", attr.Ops(), *attrOut)
	}
	if *met || *metOut != "" {
		// The dump goes to stderr (or a file), never stdout: piped experiment
		// tables must not interleave with telemetry.
		t := stats.Table{Title: "telemetry", Headers: []string{"Metric", "Value"}}
		for _, v := range reg.Snapshot() {
			if v.Count {
				t.AddRow(v.Name, fmt.Sprintf("%d", uint64(v.Value)))
			} else {
				t.AddRow(v.Name, fmt.Sprintf("%.3f", v.Value))
			}
		}
		var w io.Writer = os.Stderr
		if *metOut != "" {
			out, err := os.Create(*metOut)
			if err != nil {
				fatalf("%v", err)
			}
			defer out.Close()
			w = out
		}
		fmt.Fprint(w, t.String())
	}
}

// writeCSV dumps every table and series of a result into dir.
func writeCSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		name := filepath.Join(dir, fmt.Sprintf("%s-table%d.csv", res.ID, i))
		if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	for i, sb := range res.Series {
		name := filepath.Join(dir, fmt.Sprintf("%s-series%d.csv", res.ID, i))
		if err := os.WriteFile(name, []byte(stats.SeriesCSV(sb.XLabel, sb.Series)), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sbsim: "+format+"\n", args...)
	os.Exit(1)
}
