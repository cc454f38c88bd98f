package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"superfast/internal/stats"
)

// Hop identifies one stage of a clustered request's path. A request entering
// through ftlload, crossing an ftlvol proxy and landing on an ftlserve
// backend touches, in order: HopClient (pipeline wait in the client),
// HopProxy (one scatter/gather leg per replica), HopAdmission (the server's
// admission gate), and then the device triple HopQueue / HopGC / HopService,
// whose simulated durations sum to the request's host-visible latency.
type Hop uint8

// The hop taxonomy. Order is the canonical request path; breakdown tables
// and the Chrome export list hops in this order.
const (
	// HopClient is the client-side pipeline wait: the wall time a frame
	// spent serialized behind earlier frames on its connection. Wall-clock
	// only — the client has no simulated clock.
	HopClient Hop = iota
	// HopProxy is one replica leg of a volume scatter/gather fan-out. Its
	// simulated duration is the leg's device-reported latency; its wall
	// duration is the leg's round trip through the backend.
	HopProxy
	// HopAdmission is the server's admission-gate wait (global and
	// per-connection in-flight caps). Wall-clock only.
	HopAdmission
	// HopQueue is the device queue wait: simulated arrival to service start.
	HopQueue
	// HopGC is the garbage-collection share of device time: the blocking-GC
	// share of a write's service, and — as device-emitted background
	// records — each preemptive GC step's flash work.
	HopGC
	// HopService is the host share of device service time (flash + bus,
	// minus the blocking-GC share).
	HopService
	// NumHops counts the taxonomy; every valid Hop is < NumHops.
	NumHops = 6
	// HopNone marks a record with no upstream hop (the path root).
	HopNone Hop = 0xff
)

var hopNames = [NumHops]string{"client", "proxy", "admission", "queue", "gc", "service"}

// Valid reports whether h is a member of the taxonomy (HopNone is not).
func (h Hop) Valid() bool { return h < NumHops }

// WallOnly reports whether the hop has no simulated-clock duration: its
// latency is measured on the wall clock only.
func (h Hop) WallOnly() bool { return h == HopClient || h == HopAdmission }

func (h Hop) String() string {
	if h.Valid() {
		return hopNames[h]
	}
	if h == HopNone {
		return "none"
	}
	return fmt.Sprintf("hop(%d)", uint8(h))
}

// HopByName resolves a hop name ("client", "proxy", ...) or "none".
func HopByName(s string) (Hop, bool) {
	for i, n := range hopNames {
		if n == s {
			return Hop(i), true
		}
	}
	if s == "none" {
		return HopNone, true
	}
	return 0, false
}

// MarshalJSON renders the hop as its name, keeping ledger shards readable
// and independent of the enum's numeric values.
func (h Hop) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(h.String())), nil
}

// UnmarshalJSON accepts a hop name or "none".
func (h *Hop) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("telemetry: hop: %w", err)
	}
	v, ok := HopByName(s)
	if !ok {
		return fmt.Errorf("telemetry: unknown hop %q", s)
	}
	*h = v
	return nil
}

// HopRecord is one typed timing entry in a request's latency ledger. The
// simulated fields (SimTS, SimUS) are deterministic in sequenced replay;
// WallNS is genuinely wall-clock and varies run to run, so the deterministic
// exports exclude it.
type HopRecord struct {
	Proc   string  `json:"proc,omitempty"` // exporting process ("load", "vol", "srv:addr")
	Trace  uint64  `json:"trace"`          // trace id; 0 = untraced
	Hop    Hop     `json:"hop"`
	Parent Hop     `json:"parent"`            // upstream hop, HopNone at the root
	Leg    uint8   `json:"leg,omitempty"`     // replica leg index within a fan-out
	Seq    uint64  `json:"seq"`               // replay ticket (or 0)
	LPN    int64   `json:"lpn"`               // logical page, -1 when not applicable
	Status uint8   `json:"status,omitempty"`  // wire status observed at this hop
	Pages  int     `json:"pages,omitempty"`   // GC pages relocated (background records)
	SimTS  float64 `json:"sim_ts"`            // simulated start, µs; -1 = wall-only
	SimUS  float64 `json:"sim_us"`            // simulated duration, µs
	WallNS int64   `json:"wall_ns,omitempty"` // wall-clock duration, ns
}

// Ledger collects one process's hop records and streams per-hop latency
// digests for live exposition. Safe for concurrent use. The record list is
// bounded only by the run length; shards of long-lived servers should be
// cut via WriteShard + Reset.
type Ledger struct {
	mu   sync.Mutex
	proc string
	recs []HopRecord
	hops [NumHops]stats.LatencyDigest
}

// NewLedger returns an empty ledger exporting records under the given
// process name.
func NewLedger(proc string) *Ledger { return &Ledger{proc: proc} }

// Proc returns the process name stamped on this ledger's records.
func (l *Ledger) Proc() string { return l.proc }

// Record appends one hop record, stamping the ledger's process name, and
// feeds the hop's streaming digest — simulated µs for simulated hops, wall
// µs for wall-only hops.
func (l *Ledger) Record(r HopRecord) {
	if l == nil {
		return
	}
	r.Proc = l.proc
	l.mu.Lock()
	l.recs = append(l.recs, r)
	if r.Hop.Valid() {
		if r.Hop.WallOnly() {
			l.hops[r.Hop].Observe(float64(r.WallNS) / 1e3)
		} else {
			l.hops[r.Hop].Observe(r.SimUS)
		}
	}
	l.mu.Unlock()
}

// Len returns the number of collected records.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Reset drops the collected records (the digests keep streaming).
func (l *Ledger) Reset() {
	l.mu.Lock()
	l.recs = nil
	l.mu.Unlock()
}

// Records returns a sorted copy of the collected records (shard order).
func (l *Ledger) Records() []HopRecord {
	l.mu.Lock()
	recs := append([]HopRecord(nil), l.recs...)
	l.mu.Unlock()
	SortRecords(recs)
	return recs
}

// HopSummary returns the streaming latency summary of one hop — simulated
// µs, or wall µs for wall-only hops.
func (l *Ledger) HopSummary(h Hop) stats.DigestSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hops[h].Summary()
}

// SortRecords orders records by the total ledger key: trace, hop, leg, seq,
// proc, then the remaining fields. Deterministic fields lead, so two
// sequenced runs sort identical record sets identically.
func SortRecords(recs []HopRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if a.Leg != b.Leg {
			return a.Leg < b.Leg
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.LPN != b.LPN {
			return a.LPN < b.LPN
		}
		if a.SimTS != b.SimTS {
			return a.SimTS < b.SimTS
		}
		if a.SimUS != b.SimUS {
			return a.SimUS < b.SimUS
		}
		if a.Status != b.Status {
			return a.Status < b.Status
		}
		return a.WallNS < b.WallNS
	})
}

// WriteShard writes the ledger as one JSONL shard: one record per line, in
// shard (sorted) order. Line contents other than wall_ns are deterministic
// for a sequenced run.
func (l *Ledger) WriteShard(w io.Writer) error {
	return WriteShard(w, l.Records())
}

// WriteShard writes records as JSONL, one per line.
func WriteShard(w io.Writer, recs []HopRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadShard parses one JSONL shard. Blank lines are skipped; a malformed
// line fails with its line number.
func ReadShard(r io.Reader) ([]HopRecord, error) {
	var recs []HopRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec HopRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: shard line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// MergeRecords concatenates ledger shards and sorts them into the canonical
// merged order. The inputs are not modified.
func MergeRecords(shards ...[]HopRecord) []HopRecord {
	n := 0
	for _, s := range shards {
		n += len(s)
	}
	out := make([]HopRecord, 0, n)
	for _, s := range shards {
		out = append(out, s...)
	}
	SortRecords(out)
	return out
}

// WriteLedgerChrome writes merged ledger records as Chrome trace-event JSON:
// one process row per exporting process, one thread row per hop, simulated
// hops as complete spans on the simulated clock and wall-only hops as
// instants anchored at their trace's earliest simulated timestamp. With
// wall=false (the default for deterministic exports) wall-clock durations
// are omitted; wall=true adds them as args.
func WriteLedgerChrome(w io.Writer, recs []HopRecord, wall bool) error {
	recs = append([]HopRecord(nil), recs...)
	SortRecords(recs)

	// Assign pids in sorted process-name order and precompute each trace's
	// anchor: the earliest simulated timestamp any of its records carries.
	pids := map[string]int{}
	var procs []string
	anchor := map[uint64]float64{}
	for _, r := range recs {
		if _, ok := pids[r.Proc]; !ok {
			pids[r.Proc] = 0
			procs = append(procs, r.Proc)
		}
		if r.SimTS >= 0 {
			if a, ok := anchor[r.Trace]; !ok || r.SimTS < a {
				anchor[r.Trace] = r.SimTS
			}
		}
	}
	sort.Strings(procs)
	for i, p := range procs {
		pids[p] = i + 1
	}

	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	meta := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	for _, p := range procs {
		meta(`{"name":"process_name","ph":"M","pid":` + strconv.Itoa(pids[p]) +
			`,"args":{"name":` + strconv.Quote(p) + `}}`)
		for h := Hop(0); h.Valid(); h++ {
			meta(`{"name":"thread_name","ph":"M","pid":` + strconv.Itoa(pids[p]) +
				`,"tid":` + strconv.Itoa(int(h)) +
				`,"args":{"name":` + strconv.Quote(h.String()) + `}}`)
		}
	}
	for _, r := range recs {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		ts := r.SimTS
		ph := byte(PhaseSpan)
		if ts < 0 {
			ts = anchor[r.Trace] // 0 when the trace has no simulated record
			ph = PhaseInstant
		}
		bw.WriteString(`{"name":`)
		bw.WriteString(strconv.Quote(r.Hop.String()))
		bw.WriteString(`,"cat":"hop","ph":"`)
		bw.WriteByte(ph)
		bw.WriteString(`"`)
		if ph == PhaseInstant {
			bw.WriteString(`,"s":"t"`)
		}
		bw.WriteString(`,"pid":`)
		bw.WriteString(strconv.Itoa(pids[r.Proc]))
		bw.WriteString(`,"tid":`)
		bw.WriteString(strconv.Itoa(int(r.Hop)))
		bw.WriteString(`,"ts":`)
		bw.WriteString(formatUS(ts))
		if ph == PhaseSpan {
			bw.WriteString(`,"dur":`)
			bw.WriteString(formatUS(r.SimUS))
		}
		bw.WriteString(`,"args":{"trace":`)
		bw.WriteString(strconv.FormatUint(r.Trace, 10))
		bw.WriteString(`,"seq":`)
		bw.WriteString(strconv.FormatUint(r.Seq, 10))
		bw.WriteString(`,"parent":`)
		bw.WriteString(strconv.Quote(r.Parent.String()))
		if r.Leg > 0 {
			bw.WriteString(`,"leg":`)
			bw.WriteString(strconv.Itoa(int(r.Leg)))
		}
		if r.LPN >= 0 {
			bw.WriteString(`,"lpn":`)
			bw.WriteString(strconv.FormatInt(r.LPN, 10))
		}
		if r.Status != 0 {
			bw.WriteString(`,"status":`)
			bw.WriteString(strconv.Itoa(int(r.Status)))
		}
		if r.Pages > 0 {
			bw.WriteString(`,"pages":`)
			bw.WriteString(strconv.Itoa(r.Pages))
		}
		if wall {
			bw.WriteString(`,"wall_ns":`)
			bw.WriteString(strconv.FormatInt(r.WallNS, 10))
		}
		bw.WriteString(`}}`)
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// HopBreakdown summarizes one hop across a merged record set.
type HopBreakdown struct {
	Hop     Hop
	N       int     // records
	Pages   int     // GC pages relocated (HopGC records)
	Mean    float64 // µs (wall µs for wall-only hops)
	P50     float64
	P99     float64
	P999    float64
	Max     float64
	Slowest int // traces whose slowest simulated hop this was
}

// Breakdown is the per-hop latency table of a merged ledger.
type Breakdown struct {
	Hops   [NumHops]HopBreakdown
	Traces int // distinct trace ids
}

// LedgerBreakdown computes exact per-hop quantiles (P50/P99/P99.9) over a
// merged record set and attributes each trace to its slowest simulated hop
// (the hop with the largest summed simulated duration; earlier hops win
// ties). Wall-only hops report wall-clock µs.
func LedgerBreakdown(recs []HopRecord) Breakdown {
	var b Breakdown
	samples := [NumHops][]float64{}
	type traceSum struct{ sim [NumHops]float64 }
	sums := map[uint64]*traceSum{}
	for _, r := range recs {
		if !r.Hop.Valid() {
			continue
		}
		h := r.Hop
		b.Hops[h].N++
		b.Hops[h].Pages += r.Pages
		v := r.SimUS
		if h.WallOnly() {
			v = float64(r.WallNS) / 1e3
		}
		samples[h] = append(samples[h], v)
		ts := sums[r.Trace]
		if ts == nil {
			ts = &traceSum{}
			sums[r.Trace] = ts
		}
		if !h.WallOnly() {
			ts.sim[h] += r.SimUS
		}
	}
	b.Traces = len(sums)
	for h := 0; h < NumHops; h++ {
		b.Hops[h].Hop = Hop(h)
		s := samples[h]
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		b.Hops[h].Mean = sum / float64(len(s))
		b.Hops[h].P50 = stats.Quantile(s, 0.50)
		b.Hops[h].P99 = stats.Quantile(s, 0.99)
		b.Hops[h].P999 = stats.Quantile(s, 0.999)
		b.Hops[h].Max = s[len(s)-1]
	}
	for _, ts := range sums {
		best, bestV := -1, 0.0
		for h := 0; h < NumHops; h++ {
			if ts.sim[h] > bestV {
				best, bestV = h, ts.sim[h]
			}
		}
		if best >= 0 {
			b.Hops[best].Slowest++
		}
	}
	return b
}

// WriteTable renders the breakdown as an aligned text table: one row per
// hop (wall-only hops flagged), with exact P50/P99/P99.9 and the
// slowest-hop attribution count.
func (b Breakdown) WriteTable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-10s %8s %12s %12s %12s %12s %8s %8s\n",
		"hop", "n", "mean_us", "p50_us", "p99_us", "p999_us", "slowest", "pages")
	for _, h := range b.Hops {
		name := h.Hop.String()
		if h.Hop.WallOnly() {
			name += "*"
		}
		fmt.Fprintf(bw, "%-10s %8d %12.3f %12.3f %12.3f %12.3f %8d %8d\n",
			name, h.N, h.Mean, h.P50, h.P99, h.P999, h.Slowest, h.Pages)
	}
	fmt.Fprintf(bw, "traces: %d   (* wall-clock us)\n", b.Traces)
	return bw.Flush()
}
