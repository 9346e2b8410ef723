package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return d
}

// TestDeclarationsMatch: the workloads and metrics BENCHMARK.json
// declares are exactly the ones the program runs and reports.
func TestDeclarationsMatch(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(want), len(got))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: declared %s [%s], program has %s [%s]",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
}

// TestPlanDeterministic: one seed yields a byte-identical op list twice,
// and two seeds differ.
func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := newPlan(w, 7, 4096).bytes()
		b := newPlan(w, 7, 4096).bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w.name)
		}
		if c := newPlan(w, 8, 4096).bytes(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
	}
}

// TestPlanMix: the generated list has the workload's read share and
// touches every key.
func TestPlanMix(t *testing.T) {
	for _, w := range workloads {
		p := newPlan(w, 1, 20000)
		reads := 0
		seen := make(map[int32]bool)
		for _, o := range p.ops {
			if o.read {
				reads++
			}
			seen[o.key] = true
		}
		if got := 100 * float64(reads) / float64(len(p.ops)); math.Abs(got-float64(w.readPct)) > 2 {
			t.Errorf("%s: %.1f%% reads, want %d%%", w.name, got, w.readPct)
		}
		if len(seen) != w.keys {
			t.Errorf("%s: %d of %d keys used", w.name, len(seen), w.keys)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each declared metric is reported with its unit, is a
// number, and that every end-to-end metric is positive.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, trace: trace, opsPerRep: 300, clients: 2, minSample: 1}
			res, meta, viol, err := bench(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || len(viol) != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d violations=%v", w.name, trace, res.Correct, res.Failed, viol)
			}
			if meta.Reps < 1 || (trace && meta.TracedReps < 1) {
				t.Fatalf("%s trace=%v: %d untraced and %d traced repetitions", w.name, trace, meta.Reps, meta.TracedReps)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, declared %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if trace {
				for _, name := range []string{"core.rounds_per_read", "transport.msgs_per_write", "transport.quorum_wait_us",
					"wire.encode_ns_per_msg", "object.handle_ns_per_req", "store.pre_send_us"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
				if ev := res.Metrics["obs.events_per_op"].Value; (ev > 0) != w.telemetry {
					t.Errorf("%s: obs.events_per_op = %v with telemetry %v", w.name, ev, w.telemetry)
				}
			}
		}
	}
}

// TestCheckFlagsStaleRead: a read that misses a completed write counts
// as failed, which makes the run exit non-zero.
func TestCheckFlagsStaleRead(t *testing.T) {
	p := &plan{keys: []string{"k"}, vals: make([]byte, 2*valueSize), ops: []op{{val: 1}, {read: true}}}
	p.vals[valueSize] = 1
	setup := []record{
		{start: 1, end: 2, ts: 1, val: 0},
		{start: 3, end: 4, ts: 1, val: 0},
	}
	good := []record{
		{start: 5, end: 6, ts: 2, val: 1},
		{start: 7, end: 8, ts: 2, val: 1},
	}
	for _, w := range workloads {
		if bad, viol := check(w, p, setup, good); bad != 0 {
			t.Fatalf("%s: a regular history failed the check: %v", w.name, viol)
		}
		stale := append([]record(nil), good...)
		stale[1].ts, stale[1].val = 1, 0
		if bad, _ := check(w, p, setup, stale); bad == 0 {
			t.Fatalf("%s: a read of ts 1 after the write of ts 2 completed passed the check", w.name)
		}
	}
}

// TestMsgEqual: the codec replay's comparison tells messages apart.
func TestMsgEqual(t *testing.T) {
	a := wire.RegOp{Reg: "k", Msg: wire.WReq{TS: 3, PW: types.TSVal{TS: 3, Val: types.Value("x")}, W: types.InitWTuple()}}
	enc, err := wire.EncodeCompact(a)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wire.DecodeCompact(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !msgEqual(a, b) {
		t.Fatalf("round trip of %#v compared unequal", a)
	}
	c := a
	c.Msg = wire.WReq{TS: 3, PW: types.TSVal{TS: 3, Val: types.Value("y")}, W: types.InitWTuple()}
	if msgEqual(a, c) {
		t.Fatal("messages with different values compared equal")
	}
}
