// Command perfbench is the repository's benchmark. It drives the public
// repro/store API in one process as a closed loop: one client goroutine
// per CPU takes the next op from one seeded op list, calls Store.Read or
// Store.Write, and waits for it. Each repetition opens a fresh store,
// sets every key up, replays the op list, checks every key's history
// against the register semantics, and measures; repetitions continue
// until the run's time is spent.
//
//	perfbench --workload kv-uniform --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced
// repetitions. With --trace 1 it alternates untraced and traced
// repetitions and prints the per-layer metrics; see README.md. The last
// line of standard output is one JSON object; the exit code is non-zero
// if any op failed or any read broke the semantics.
package main

import (
	"bufio"
	"encoding/json"

	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"store.pre_send_us", "us"},
	{"core.rounds_per_read", "rounds/op"},
	{"core.rounds_per_write", "rounds/op"},
	{"core.fast_read_pct", "%"},
	{"core.decide_us_per_read", "us"},
	{"core.decide_us_per_write", "us"},
	{"transport.msgs_per_read", "msgs/op"},
	{"transport.msgs_per_write", "msgs/op"},
	{"transport.bytes_per_read", "B/op"},
	{"transport.bytes_per_write", "B/op"},
	{"transport.quorum_wait_us", "us"},
	{"object.hist_entries_per_reply", "entries"},
	{"object.handle_ns_per_req", "ns"},
	{"object.history_len_max", "entries"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"obs.events_per_op", "events/op"},
	{"obs.snapshot_ms", "ms"},
	{"proc.allocs_per_op", "allocs/op"},
	{"proc.alloc_kb_per_op", "KB/op"},
	{"proc.gc_cycles_per_kop", "GC/kop"},
	{"trace.overhead_pct", "%"},
}

// minSamples is the fewest reads and writes a run issues, so each p99
// has at least ten samples beyond it.
const minSamples = 1000

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	opsPerRep int // 0 keeps the workload's; tests run tiny repetitions
	clients   int
	minSample int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machine is the metadata printed with every result, so numbers from
// different machine classes are never compared silently.
type machine struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Reps       int     `json:"reps"`
	TracedReps int     `json:"traced_reps"`
	OpsPerRep  int     `json:"ops_per_rep"`
	FailedPct  float64 `json:"failed_pct"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs traced repetitions and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	cfg.minSample = minSamples

	res, meta, violations, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "perfbench: violation: %s\n", v)
	}
	if err := report(stdout, res, meta); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// report prints the metadata, one line per metric, and the result.
func report(w io.Writer, res result, meta machine) error {
	mj, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# machine %s\n", mj)
	defs := endToEnd
	if meta.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(bw, "%-32s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(bw, "%-32s %14.4f %% (%d of %d ops)\n", "failed_pct", meta.FailedPct, res.Failed, res.Attempted)
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", rj)
	return bw.Flush()
}

// bench runs one workload for cfg.seconds and computes its metrics.
func bench(cfg config) (result, machine, []string, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, machine{}, nil, err
	}
	if cfg.opsPerRep > 0 {
		w.opsPerRep = cfg.opsPerRep
	}
	meta := machine{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Clients: cfg.clients, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Go: runtime.Version(), OpsPerRep: w.opsPerRep,
	}
	p := newPlan(w, cfg.seed, w.opsPerRep)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))

	var plain, traced []*repResult
	var violations []string
	res := result{Correct: true, Metrics: make(map[string]metric)}
	tr := &tracer{seed: cfg.seed}
	// last is the duration of the latest untraced and traced
	// repetition: a repetition starts only if one like it still fits.
	var last [2]time.Duration
	reads, writes := 0, 0
	for i := 0; ; i++ {
		doTrace := cfg.trace && i%2 == 1
		kind := 0
		if doTrace {
			kind = 1
		}
		enough := len(plain) > 0 && (!cfg.trace || len(traced) > 0) &&
			reads >= cfg.minSample && writes >= cfg.minSample
		if enough && time.Now().Add(last[kind]).After(deadline) {
			break
		}
		repStart := time.Now()
		var t *tracer
		if doTrace {
			t = tr
		}
		r, err := repetition(w, p, cfg.clients, t)
		if err != nil {
			return result{}, meta, violations, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		last[kind] = time.Since(repStart)
		res.Attempted += 2*len(p.keys) + r.ops
		res.Failed += r.failed
		violations = append(violations, r.violations...)
		if doTrace {
			traced = append(traced, r)
			continue
		}
		plain = append(plain, r)
		reads += len(r.readLat)
		writes += len(r.wrLat)
	}
	res.Correct = res.Failed == 0
	meta.Reps, meta.TracedReps = len(plain), len(traced)
	meta.FailedPct = 100 * float64(res.Failed) / float64(res.Attempted)

	if cfg.trace {
		layerMetrics(res.Metrics, &tr.sum, plain, traced)
	} else {
		endToEndMetrics(res.Metrics, plain)
	}
	return res, meta, violations, nil
}

// endToEndMetrics pools the latencies and the timed phases of every
// repetition, and reports the median set-up time and heap.
func endToEndMetrics(out map[string]metric, reps []*repResult) {
	var setup, heap []float64
	var rd, wr []time.Duration
	var ops int
	var elapsed time.Duration
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, r.heapMB)
		rd = append(rd, r.readLat...)
		wr = append(wr, r.wrLat...)
		ops += r.ops
		elapsed += r.elapsed
	}
	set := setter(out)
	set("setup_s", median(setup))
	set("ops_per_s", float64(ops)/elapsed.Seconds())
	set("read_p50_ms", pct(rd, 0.50))
	set("read_p99_ms", pct(rd, 0.99))
	set("write_p50_ms", pct(wr, 0.50))
	set("write_p99_ms", pct(wr, 0.99))
	set("heap_mb", median(heap))
}

// layerMetrics reports the per-layer sums of the traced repetitions, the
// allocation rates of the untraced ones, and the tracing overhead.
func layerMetrics(out map[string]metric, ls *layerSample, plain, traced []*repResult) {
	var tputTraced, tputPlain []float64
	for _, r := range traced {
		tputTraced = append(tputTraced, float64(r.ops)/r.elapsed.Seconds())
	}
	var mallocs, bytes, gcs uint64
	ops := 0
	for _, r := range plain {
		tputPlain = append(tputPlain, float64(r.ops)/r.elapsed.Seconds())
		mallocs += r.mallocs
		bytes += r.allocBytes
		gcs += uint64(r.gcs)
		ops += r.ops
	}
	set := setter(out)
	m := ls.metrics
	set("store.pre_send_us", ratio(float64(ls.preSendNs)/1e3, float64(ls.preSendN)))
	set("core.rounds_per_read", m.RoundsPerRead())
	set("core.rounds_per_write", m.RoundsPerWrite())
	set("core.fast_read_pct", m.FastReadPct())
	set("core.decide_us_per_read", ratio(float64(ls.decideReadNs)/1e3, float64(ls.matchedReads)))
	set("core.decide_us_per_write", ratio(float64(ls.decideWrNs)/1e3, float64(ls.matchedWr)))
	set("transport.msgs_per_read", ratio(float64(ls.readMsgs), float64(ls.reads)))
	set("transport.msgs_per_write", ratio(float64(ls.writeMsgs), float64(ls.writes)))
	set("transport.bytes_per_read", ratio(float64(ls.readBytes), float64(ls.reads)))
	set("transport.bytes_per_write", ratio(float64(ls.writeBytes), float64(ls.writes)))
	set("transport.quorum_wait_us", ratio(float64(ls.quorumNs)/1e3, float64(ls.quorumN)))
	set("object.hist_entries_per_reply", ratio(float64(ls.histEntries), float64(ls.histReplies)))
	set("object.handle_ns_per_req", ratio(float64(ls.handleNs), float64(ls.handleReqs)))
	set("object.history_len_max", float64(ls.histLenMax))
	set("wire.encode_ns_per_msg", ratio(float64(ls.encodeNs), float64(ls.codecN)))
	set("wire.decode_ns_per_msg", ratio(float64(ls.decodeNs), float64(ls.codecN)))
	set("obs.events_per_op", ratio(float64(ls.events), float64(ls.eventOps)))
	set("obs.snapshot_ms", median(ls.snapshotMs))
	set("proc.allocs_per_op", ratio(float64(mallocs), float64(ops)))
	set("proc.alloc_kb_per_op", ratio(float64(bytes)/1024, float64(ops)))
	set("proc.gc_cycles_per_kop", ratio(1000*float64(gcs), float64(ops)))
	plainMed := median(tputPlain)
	set("trace.overhead_pct", ratio(100*(plainMed-median(tputTraced)), plainMed))
}

// setter returns a function that stores a declared metric with its unit.
func setter(out map[string]metric) func(name string, v float64) {
	return func(name string, v float64) {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if d.name == name {
					out[name] = metric{Value: v, Unit: d.unit}
					return
				}
			}
		}
		panic("perfbench: undeclared metric " + name)
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct sorts ds and returns its nearest-rank q-quantile in milliseconds.
func pct(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return float64(ds[max(i, 0)]) / 1e6
}

// cpuModel returns the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
