package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestTraceStructure asserts, from the outside, the protocol structure
// the paper claims: an operation is op-start, round 1, its acks, round
// 2, its acks, decided — with at least S−t acks per round and no round
// 3 — for the writer and every reader kind. A fast-path READ is
// op-start, round 1, its acks, fast-read, decided: no round 2.
func TestTraceStructure(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		regular, optimized, fast bool
	}{
		{name: "safe"},
		{name: "regular", regular: true},
		{name: "regular-opt", regular: true, optimized: true},
		{name: "regular-opt/fast", regular: true, optimized: true, fast: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c *cluster
			if tc.regular {
				c = newRegularCluster(t, 1, 1, 1, nil, false) // S=4, quorum 3
			} else {
				c = newSafeCluster(t, 1, 1, 1, nil)
			}
			if tc.fast {
				// Silence the one object outside every write quorum so
				// that all round-1 replies agree.
				c.net.Crash(transport.Object(3))
			}
			w := c.writer()
			var r *core.Reader
			if tc.regular {
				r = c.regularReader(0, tc.optimized)
			} else {
				r = c.safeReader(0)
			}
			r.SetFastPath(tc.fast)
			var wt, rt core.TraceRecorder
			w.SetTracer(&wt)
			r.SetTracer(&rt)

			if err := w.Write(ctx(t), types.Value("traced")); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Read(ctx(t)); err != nil {
				t.Fatal(err)
			}
			checkTrace(t, "write", wt.Events(), c.cfg.RoundQuorum(), false)
			checkTrace(t, "read", rt.Events(), c.cfg.RoundQuorum(), tc.fast)
		})
	}
}

func checkTrace(t *testing.T, name string, events []string, quorum int, fast bool) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no events", name)
	}
	if !strings.HasSuffix(events[0], "/start") {
		t.Errorf("%s: first event %q, want start", name, events[0])
	}
	if !strings.Contains(events[len(events)-1], "/decided@") {
		t.Errorf("%s: last event %q, want decided", name, events[len(events)-1])
	}
	var round1Acks, round2Acks, rounds, fastReads int
	seenRound2 := false
	for _, e := range events {
		switch {
		case strings.Contains(e, "/round1"):
			rounds++
		case strings.Contains(e, "/round2"):
			rounds++
			seenRound2 = true
		case strings.Contains(e, "/round3"):
			t.Errorf("%s: third round observed: %q", name, e)
		case strings.Contains(e, "/ack1/"):
			if seenRound2 && name == "write" {
				t.Errorf("%s: round-1 ack after round 2 started: %v", name, events)
			}
			round1Acks++
		case strings.Contains(e, "/ack2/"):
			round2Acks++
		case e == "READ/fast-read":
			fastReads++
		}
	}
	if fast {
		if rounds != 1 || seenRound2 || round2Acks != 0 || fastReads != 1 {
			t.Errorf("%s: %d round starts, %d round-2 acks, %d fast-read events, want 1/0/1: %v",
				name, rounds, round2Acks, fastReads, events)
		}
		if got := events[len(events)-2]; got != "READ/fast-read" {
			t.Errorf("%s: event before decided %q, want READ/fast-read", name, got)
		}
	} else {
		if rounds != 2 {
			t.Errorf("%s: %d round starts, want 2", name, rounds)
		}
		if fastReads != 0 {
			t.Errorf("%s: fast-read event on the two-round path: %v", name, events)
		}
	}
	if round1Acks < quorum {
		t.Errorf("%s: round-1 acks = %d, want ≥ %d", name, round1Acks, quorum)
	}
	// Round 2 may decide on round-1 evidence alone for reads (the
	// wait-until condition can hold at entry); writes always await a
	// fresh quorum.
	if name == "write" && round2Acks < quorum {
		t.Errorf("write: round-2 acks = %d, want ≥ %d", round2Acks, quorum)
	}
}

// TestTracerNilRestoresNoop: SetTracer(nil) must not panic subsequent
// operations.
func TestTracerNilRestoresNoop(t *testing.T) {
	c := newSafeCluster(t, 1, 1, 1, nil)
	w := c.writer()
	var rec core.TraceRecorder
	w.SetTracer(&rec)
	w.SetTracer(nil)
	if err := w.Write(ctx(t), types.Value("x")); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) != 0 {
		t.Error("events recorded after tracer removal")
	}
}
