package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Writer is the single writer of the SWMR storage (Fig. 2). Every WRITE
// takes exactly two rounds:
//
//   - PW: install the fresh pre-write pair ⟨ts, v⟩ (re-installing the
//     previous complete tuple alongside) and read back each responding
//     object's reader-timestamp vector;
//   - W: install the complete tuple ⟨⟨ts, v⟩, currenttsrarray⟩ built
//     from exactly S−t collected vectors.
//
// The same writer serves the safe and the regular storage: the object
// side decides whether to keep only the latest state (Fig. 3) or the
// history (Fig. 5).
//
// Write copies the caller's value once; from there on the pair, the
// collected tsr vectors and the tuple are shared with the messages that
// carry them, which are immutable once sent (see package wire).
//
// Writer is not safe for concurrent use; the model's single writer
// invokes one operation at a time.
type Writer struct {
	client

	ts   types.TS
	last types.WTuple // the complete tuple of the previous write ("last copy of w′")

	// Pipelining state (SetPipelined): pending is the timestamp of the
	// write whose W (write-back) round has been broadcast but not yet
	// confirmed by S−t objects; 0 when no write-back is outstanding.
	pipelined bool
	pending   types.TS
}

// NewWriter returns the writer client for the given configuration.
func NewWriter(cfg quorum.Config, conn transport.Conn) (*Writer, error) {
	c, err := newClient(cfg, conn)
	if err != nil {
		return nil, err
	}
	return &Writer{client: c, last: types.InitWTuple()}, nil
}

// TS returns the timestamp of the last completed write.
func (w *Writer) TS() types.TS { return w.ts }

// SetPipelined toggles write-round pipelining. When on, Write issues
// op N's write-back (W) broadcast without awaiting its acks: they are
// collected alongside op N+1's pre-write (PW) round, so the steady
// state awaits ONE round-trip per write instead of two.
//
// Why this is safe: PW⟨ts′, pw′, w′⟩ of op N+1 carries w′ = the
// complete tuple of op N, and both object types install w′ before
// acknowledging (Fig. 3 adopts w; Fig. 5 fills history[ts′−1]). A
// PW_ACK for op N+1 therefore certifies that the sender durably holds
// op N's write-back state — it is equivalent to a W_ACK for op N — so
// Write(N+1) returns only after op N's tuple is installed at S−t
// objects, exactly the postcondition of the unpipelined W round. The
// hedging layer preserves liveness for free: a straggler re-driven
// with PW(N+1) confirms N and contributes to N+1 with one reply.
//
// The one write that has no successor is completed by Flush; embedding
// stores must flush a register's pending write before serving a READ
// of the same register, or a read could miss a write that already
// returned (per-writer timestamp order is preserved regardless, since
// ts increments before each broadcast).
func (w *Writer) SetPipelined(on bool) { w.pipelined = on }

// Pending returns the timestamp of the pipelined write whose
// write-back round is still unconfirmed (0 when none).
func (w *Writer) Pending() types.TS { return w.pending }

// Flush awaits W_ACKs from S−t objects for the pending pipelined
// write, completing its write-back round. No-op when nothing pends.
func (w *Writer) Flush(ctx context.Context) error {
	if w.pending == 0 {
		return nil
	}
	if err := w.awaitWAcks(ctx, w.pending, nil); err != nil {
		return fmt.Errorf("core: WRITE ts=%d flush: %w", w.pending, err)
	}
	w.pending = 0
	return nil
}

// awaitWAcks collects W_ACK⟨ts⟩ from S−t distinct objects. With st
// set, each accepted ack is counted and traced as a round-2 ack.
func (w *Writer) awaitWAcks(ctx context.Context, ts types.TS, st *OpStats) error {
	quorum := w.params.Cfg.RoundQuorum()
	acked := make(map[types.ObjectID]bool, quorum)
	for len(acked) < quorum {
		msg, err := w.conn.Recv(ctx)
		if err != nil {
			return err
		}
		ack, ok := msg.Payload.(wire.WAck)
		if !ok || ack.TS != ts || !w.params.fromObject(msg.From, ack.ObjectID) || acked[ack.ObjectID] {
			continue
		}
		acked[ack.ObjectID] = true
		if st != nil {
			st.Acks++
			w.trace.AckAccepted(OpWrite, 2, ack.ObjectID)
		}
	}
	return nil
}

// Write stores v in the register. It blocks until both rounds complete
// (wait-free given S−t correct objects) or ctx is cancelled.
func (w *Writer) Write(ctx context.Context, v types.Value) error {
	if v.IsBottom() {
		return fmt.Errorf("core: ⊥ is not a valid input value for WRITE")
	}
	if w.pipelined {
		return w.writePipelined(ctx, v)
	}
	start := time.Now()
	st := OpStats{Kind: OpWrite}
	cfg := w.params.Cfg
	w.trace.OpStart(OpWrite)

	// Round PW: inc(ts); pw := ⟨ts, v⟩; send PW⟨ts, pw, w⟩ to all.
	w.ts++
	w.trace.RoundStart(OpWrite, 1)
	pw := types.TSVal{TS: w.ts, Val: v.Clone()}
	st.Sent += w.broadcast(wire.PWReq{TS: w.ts, PW: pw, W: w.last})
	st.Rounds++

	// Wait for PW_ACK⟨ts, tsr⟩ from exactly S−t distinct objects,
	// folding each vector into currenttsrarray. Snapshotting at exactly
	// S−t acks matters: the proofs of Lemmas 3 and 6 rely on the
	// written matrix having exactly t+b+1 non-nil rows.
	current := types.NewTSRMatrix()
	for len(current) < cfg.RoundQuorum() {
		msg, err := w.conn.Recv(ctx)
		if err != nil {
			return fmt.Errorf("core: WRITE ts=%d PW round: %w", w.ts, err)
		}
		ack, ok := msg.Payload.(wire.PWAck)
		if !ok || ack.TS != w.ts {
			continue // stale or foreign traffic
		}
		if !w.params.fromObject(msg.From, ack.ObjectID) {
			continue // claimed identity must match the authenticated link
		}
		if _, dup := current[ack.ObjectID]; dup {
			continue
		}
		st.Acks++
		w.trace.AckAccepted(OpWrite, 1, ack.ObjectID)
		current[ack.ObjectID] = ack.TSR
	}
	// A completed PW round also certifies any write-back left pending
	// by an earlier pipelined phase: the PW message carried that tuple
	// and S−t objects installed it before acking.
	w.pending = 0

	// Round W: w := ⟨pw, currenttsrarray⟩; send W⟨ts, pw, w⟩ to all.
	w.trace.RoundStart(OpWrite, 2)
	tuple := types.WTuple{TSVal: pw, TSR: current}
	st.Sent += w.broadcast(wire.WReq{TS: w.ts, PW: pw, W: tuple})
	st.Rounds++
	if err := w.awaitWAcks(ctx, w.ts, &st); err != nil {
		return fmt.Errorf("core: WRITE ts=%d W round: %w", w.ts, err)
	}

	w.trace.Decided(OpWrite, w.ts)
	w.last = tuple
	st.Duration = time.Since(start)
	w.stats = st
	return nil
}

// writePipelined is the one-awaited-round WRITE (SetPipelined). It
// broadcasts PW(N), then in a single collect loop absorbs PW_ACKs for
// N (building the tsr matrix) while also counting confirmations of the
// still-pending op N−1 — a W_ACK(N−1), or equivalently a PW_ACK(N),
// which certifies the sender installed tuple(N−1) before acking. Once
// the matrix holds exactly S−t rows (the snapshot Lemmas 3 and 6 rely
// on) and N−1 is confirmed by S−t objects, it broadcasts W(N) WITHOUT
// awaiting its acks and returns; op N+1 (or Flush) collects them.
//
// Naive early return after broadcasting W(N) alone would be unsafe: a
// read starting after Write(N) returned could find tuple(N) installed
// nowhere. Here Write(N) returns only after PW(N) completed at S−t
// objects — each of which durably holds pw(N) — and tuple(N−1) is
// installed at S−t objects, so the unpipelined postcondition holds one
// op late, and the embedding store's flush-before-read closes the last
// gap for the most recent write.
func (w *Writer) writePipelined(ctx context.Context, v types.Value) error {
	start := time.Now()
	st := OpStats{Kind: OpWrite}
	cfg := w.params.Cfg
	w.trace.OpStart(OpWrite)

	// Round PW: inc(ts); pw := ⟨ts, v⟩; send PW⟨ts, pw, w⟩ to all.
	w.ts++
	w.trace.RoundStart(OpWrite, 1)
	pw := types.TSVal{TS: w.ts, Val: v.Clone()}
	st.Sent += w.broadcast(wire.PWReq{TS: w.ts, PW: pw, W: w.last})
	st.Rounds++ // the only awaited round-trip of a pipelined WRITE

	current := types.NewTSRMatrix()
	confirmed := make(map[types.ObjectID]bool, cfg.RoundQuorum())
	need := func() bool {
		if len(current) < cfg.RoundQuorum() {
			return true
		}
		return w.pending != 0 && len(confirmed) < cfg.RoundQuorum()
	}
	for need() {
		msg, err := w.conn.Recv(ctx)
		if err != nil {
			return fmt.Errorf("core: WRITE ts=%d pipelined PW round: %w", w.ts, err)
		}
		switch ack := msg.Payload.(type) {
		case wire.PWAck:
			if ack.TS != w.ts || !w.params.fromObject(msg.From, ack.ObjectID) {
				continue
			}
			// PW_ACK(N) doubles as the object's W_ACK(N−1): PW(N)
			// carried tuple(N−1) and the object installed it first.
			if w.pending != 0 && !confirmed[ack.ObjectID] {
				confirmed[ack.ObjectID] = true
				w.trace.Ext(OpWrite, EvPipelinedAck, fmt.Sprintf("obj%d@pw", ack.ObjectID))
			}
			if _, dup := current[ack.ObjectID]; dup || len(current) >= cfg.RoundQuorum() {
				continue // snapshot the matrix at exactly S−t rows
			}
			st.Acks++
			w.trace.AckAccepted(OpWrite, 1, ack.ObjectID)
			current[ack.ObjectID] = ack.TSR
		case wire.WAck:
			if w.pending == 0 || ack.TS != w.pending || !w.params.fromObject(msg.From, ack.ObjectID) || confirmed[ack.ObjectID] {
				continue
			}
			st.Acks++
			confirmed[ack.ObjectID] = true
			w.trace.Ext(OpWrite, EvPipelinedAck, fmt.Sprintf("obj%d@w", ack.ObjectID))
		}
	}

	// Round W: broadcast ⟨pw, currenttsrarray⟩ but do not await the
	// acks — the next Write's PW round (or Flush) collects them.
	w.trace.RoundStart(OpWrite, 2)
	tuple := types.WTuple{TSVal: pw, TSR: current}
	st.Sent += w.broadcast(wire.WReq{TS: w.ts, PW: pw, W: tuple})
	w.pending = w.ts

	w.trace.Decided(OpWrite, w.ts)
	w.last = tuple
	st.Duration = time.Since(start)
	w.stats = st
	return nil
}
