// Command reprocheck certifies the reproduction: it runs the evaluation
// sweep and compares every headline number and ordering against the paper's
// published values, printing PASS/FAIL per check with the allowed band.
//
// Usage:
//
//	reprocheck            # medium scale (~6 s on 2 cores, ~12 s on one)
//	reprocheck -full      # the paper's full setup (several minutes)
//	reprocheck -quick     # smoke scale
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"superfast/internal/assembly"
	"superfast/internal/core"
	"superfast/internal/experiments"
	"superfast/internal/flash"
	"superfast/internal/stats"
)

// check is one certification row.
type check struct {
	name   string
	paper  string
	got    string
	pass   bool
	detail string
}

func main() {
	var (
		full  = flag.Bool("full", false, "run the paper's full-scale setup")
		quick = flag.Bool("quick", false, "smoke scale (loose bands)")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	// The sweep's output is byte-identical at any parallelism.
	cfg.Parallel = runtime.GOMAXPROCS(0)
	switch {
	case *full:
		// keep defaults
	case *quick:
		cfg.BlocksPerLane = 100
		cfg.Groups = 1
		cfg.PESteps = []int{0}
	default:
		cfg.BlocksPerLane = 200
		cfg.Groups = 2
		cfg.PESteps = []int{0, 1500, 3000}
	}

	strategies := []assembly.Assembler{
		assembly.Random{Seed: cfg.Seed + 1},
		assembly.Sequential{},
		assembly.ByErase{},
		assembly.ByPgmSum{},
		assembly.Optimal{Window: cfg.Window},
		assembly.Ranked{Kind: assembly.LWLRank, Window: cfg.Window},
		assembly.Ranked{Kind: assembly.STRRank, Window: cfg.Window},
		assembly.STRMedian{Window: cfg.MedWindow},
		core.BatchAssembler{K: cfg.MedWindow},
	}
	out, err := experiments.SweepStrategies(cfg, strategies)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprocheck: %v\n", err)
		os.Exit(1)
	}
	byName := map[string]experiments.StrategyOutcome{}
	for _, o := range out {
		byName[o.Name] = o
	}
	rnd := byName["RANDOM"]
	imp := func(name string) float64 {
		return stats.Improvement(rnd.MeanPgm, byName[name].MeanPgm)
	}
	impErs := func(name string) float64 {
		return stats.Improvement(rnd.MeanErs, byName[name].MeanErs)
	}
	opt := fmt.Sprintf("OPTIMAL (%d)", cfg.Window)
	strRank := fmt.Sprintf("STR-RANK (%d)", cfg.Window)
	lwlRank := fmt.Sprintf("LWL-RANK (%d)", cfg.Window)
	strMed := fmt.Sprintf("STR-MED (%d)", cfg.MedWindow)
	qstr := fmt.Sprintf("QSTR-MED (%d)", cfg.MedWindow)

	band := func(v, lo, hi float64) bool { return v >= lo && v <= hi }
	loose := 1.0
	if *quick {
		loose = 2.0 // widen absolute bands at smoke scale
	}
	var checks []check
	add := func(name, paper string, got string, pass bool, detail string) {
		checks = append(checks, check{name, paper, got, pass, detail})
	}

	// Headline magnitudes (Fig. 6 / Table V), band ±15% (× loose).
	add("random extra PGM latency", "13,084.17 µs", stats.FmtUS(rnd.MeanPgm)+" µs",
		band(rnd.MeanPgm, 13084*(1-0.15*loose), 13084*(1+0.15*loose)), "±15%")
	add("random extra ERS latency", "41.71 µs", stats.FmtUS(rnd.MeanErs)+" µs",
		band(rnd.MeanErs, 41.71*(1-0.2*loose), 41.71*(1+0.2*loose)), "±20%")

	// Table I improvement magnitudes, band ±4 pp (× loose).
	pp := 0.04 * loose
	impChecks := []struct {
		name  string
		key   string
		paper float64
	}{
		{"SEQUENTIAL improvement", "SEQUENTIAL", 0.1045},
		{"ERS-LTN improvement", "ERS-LTN", 0.0855},
		{"PGM-LTN improvement", "PGM-LTN", 0.1037},
		{"OPTIMAL(8) improvement", opt, 0.1949},
		{"LWL-RANK(8) improvement", lwlRank, 0.1411},
		{"STR-RANK(8) improvement", strRank, 0.1827},
		{"STR-MED(4) improvement", strMed, 0.1674},
		{"QSTR-MED(4) improvement", qstr, 0.1661},
	}
	for _, c := range impChecks {
		v := imp(c.key)
		add(c.name, stats.FmtPct(c.paper), stats.FmtPct(v),
			band(v, c.paper-pp, c.paper+pp), fmt.Sprintf("±%.0f pp", pp*100))
	}

	// Orderings (the load-bearing shape).
	add("OPTIMAL ≥ STR-RANK", "ordering", "", imp(opt) >= imp(strRank), "")
	add("STR-RANK ≥ STR-MED", "ordering", "", imp(strRank) >= imp(strMed), "")
	add("STR-MED ≈ QSTR-MED (≤3 pp)", "ordering", "",
		imp(strMed)-imp(qstr) <= 0.03 && imp(strMed)-imp(qstr) >= -0.01, "")
	add("QSTR-MED > SEQUENTIAL", "ordering", "", imp(qstr) > imp("SEQUENTIAL"), "")
	add("erase gains exceed program gains (QSTR-MED)", "ordering", "",
		impErs(qstr) > imp(qstr), "")

	// Computing overhead (§VI-B2).
	med := byName[strMed]
	q := byName[qstr]
	reduction := stats.Improvement(float64(med.PairChecks), float64(q.PairChecks))
	add("QSTR-MED check reduction", "99.22%", stats.FmtPct(reduction),
		band(reduction, 0.985, 0.995), "±0.5 pp")

	// Space overhead (Equation 2).
	perBlock := core.MemoryFootprintBytes(flash.PaperGeometry()) / flash.PaperGeometry().TotalBlocks()
	add("metadata per block", "52 B", fmt.Sprintf("%d B", perBlock), perBlock == 52, "exact")

	// Render.
	t := stats.Table{Title: "Reproduction certification", Headers: []string{"Check", "Paper", "Measured", "Band", "Result"}}
	failed := 0
	for _, c := range checks {
		res := "PASS"
		if !c.pass {
			res = "FAIL"
			failed++
		}
		t.AddRow(c.name, c.paper, c.got, c.detail, res)
	}
	fmt.Print(t.String())
	fmt.Printf("\n%d/%d checks passed", len(checks)-failed, len(checks))
	if failed > 0 {
		fmt.Printf(" — %d FAILED", failed)
	}
	fmt.Println()
	fmt.Println("(known deviation: PWL-RANK is excluded; see DESIGN.md §5)")
	if failed > 0 {
		os.Exit(1)
	}
}
