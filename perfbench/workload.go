package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"repro/store"
)

// valueSize is the size of every generated value.
const valueSize = 64

// workload is one deployment plus one traffic mix. Every store knob the
// workload does not name keeps the store's default, so a change that
// flips a default is measured without editing the benchmark.
type workload struct {
	name string
	// opts is the deployment. Telemetry stays nil here; telemetry says
	// whether the workload switches it on.
	opts      store.Options
	telemetry bool
	keys      int
	readPct   int
	// opsPerRep is the length of the timed op list one repetition
	// replays on a fresh store.
	opsPerRep int
}

// paperDeployment is the paper's setting on four shards: S = 2t+b+1 = 4
// objects per shard with one live Byzantine member.
var paperDeployment = store.Options{T: 1, B: 1, Shards: 4, Semantics: store.RegularOpt, ByzPerShard: 1}

var workloads = []workload{
	{
		name:      "kv-uniform",
		opts:      paperDeployment,
		keys:      1024,
		readPct:   50,
		opsPerRep: 8192,
	},
	{
		name:      "hot-history",
		opts:      paperDeployment,
		keys:      8,
		readPct:   10,
		opsPerRep: 6144,
	},
	{
		name:      "tcp-safe",
		opts:      store.Options{T: 2, B: 2, Shards: 1, Semantics: store.Safe, TCP: true},
		keys:      256,
		readPct:   50,
		opsPerRep: 4096,
	},
	{
		name:      "kv-telemetry",
		opts:      paperDeployment,
		telemetry: true,
		keys:      1024,
		readPct:   50,
		opsPerRep: 8192,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// storeOptions returns the deployment the workload opens.
func (w workload) storeOptions() store.Options {
	o := w.opts
	if w.telemetry {
		o.Telemetry = &store.TelemetryOptions{}
	}
	return o
}

// op is one generated operation. val indexes plan.vals for writes.
type op struct {
	read bool
	key  int32
	val  int32
}

// plan is everything the store receives, generated from one seed before
// the store is opened: the setup writes (one value per key, then a
// read of every key) and the timed op list.
type plan struct {
	keys []string
	// vals holds every value back to back, valueSize bytes each; value
	// i < len(keys) is key i's setup value.
	vals []byte
	ops  []op
	// valID maps a value's bytes to its index, so a read's result is
	// checked without keeping the store's bytes alive.
	valID map[string]int32
}

// newPlan generates n timed ops for w from seed: uniform key choice,
// readPct% reads, fresh random values.
func newPlan(w workload, seed uint64, n int) *plan {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	p := &plan{keys: make([]string, w.keys), ops: make([]op, n)}
	for i := range p.keys {
		p.keys[i] = fmt.Sprintf("key/%04d", i)
	}
	nvals := w.keys
	for i := range p.ops {
		o := op{read: rng.IntN(100) < w.readPct, key: int32(rng.IntN(w.keys))}
		if !o.read {
			o.val = int32(nvals)
			nvals++
		}
		p.ops[i] = o
	}
	p.vals = make([]byte, nvals*valueSize)
	for i := 0; i < len(p.vals); i += 8 {
		binary.LittleEndian.PutUint64(p.vals[i:], rng.Uint64())
	}
	p.valID = make(map[string]int32, nvals)
	for i := 0; i < nvals; i++ {
		p.valID[string(p.value(int32(i)))] = int32(i)
	}
	return p
}

// value returns value i.
func (p *plan) value(i int32) []byte {
	return p.vals[int(i)*valueSize : int(i+1)*valueSize : int(i+1)*valueSize]
}

// bytes serializes the plan: the byte-identity the determinism test
// compares.
func (p *plan) bytes() []byte {
	out := make([]byte, 0, len(p.vals)+len(p.ops)*9)
	for _, k := range p.keys {
		out = append(out, k...)
		out = append(out, 0)
	}
	for _, o := range p.ops {
		b := byte(0)
		if o.read {
			b = 1
		}
		out = append(out, b)
		out = binary.LittleEndian.AppendUint32(out, uint32(o.key))
		out = binary.LittleEndian.AppendUint32(out, uint32(o.val))
	}
	return append(out, p.vals...)
}
