// Package core implements the paper's primary contribution: the
// optimally resilient (S = 2t+b+1) SWMR robust storage of Guerraoui &
// Vukolić (PODC 2006) in which every READ and every WRITE completes in
// at most two communication round-trips, for both safe (Figs. 2–4) and
// regular (Figs. 2, 5, 6) semantics, including the §5.1 cached-suffix
// optimization of the regular reader.
//
// The novel mechanism, preserved faithfully here: readers write control
// data (their read timestamps tsr) into the base objects in both read
// rounds, and the writer reads those timestamps back in its first round
// (PW) and embeds the collected matrix (tsrarray) in the tuple it writes
// in its second round (W). Readers use the matrix to detect forged
// candidates: a Byzantine object presenting a tuple whose matrix claims
// some object saw a reader timestamp the reader has not yet issued is in
// conflict with that object (Fig. 4 line 1), and the first read round
// only completes on a conflict-free set of S−t responders.
//
// Writer runs both storages' WRITE. One read driver, Reader, runs both
// storages' READ: NewSafeReader and NewRegularReader pick the evidence
// it collects, the Fig. 4 bookkeeping (safeReadState) or the Fig. 6
// one (regularReadState). Each READ builds its bookkeeping afresh in
// the driver's frame, where it stays off the heap.
//
// Clients are written against transport.Conn and run unchanged over the
// concurrent in-memory network, the deterministic simulator, and TCP.
package core

import (
	"errors"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ErrBadConfig reports an invalid storage configuration.
var ErrBadConfig = errors.New("core: invalid configuration")

// OpKind labels an operation for stats and history recording.
type OpKind int

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String renders the kind.
func (k OpKind) String() string {
	if k == OpWrite {
		return "WRITE"
	}
	return "READ"
}

// OpStats records the complexity of a single completed operation in the
// paper's metrics: communication round-trips, messages sent by the
// client, acknowledgements processed, and wall-clock duration.
type OpStats struct {
	Kind     OpKind
	Rounds   int
	Sent     int
	Acks     int
	Duration time.Duration
	// FastPath reports that a READ decided after its first round: all
	// S−t round-1 replies were byte-identical, timestamp-dominant, and
	// conflict-free, so round 2 was skipped (see SetFastPath).
	FastPath bool
}

// Params bundles what every client needs: the resilience configuration
// and derived thresholds.
type Params struct {
	Cfg quorum.Config
}

// NewParams validates cfg and returns client parameters.
func NewParams(cfg quorum.Config) (Params, error) {
	if err := cfg.Validate(); err != nil {
		return Params{}, errors.Join(ErrBadConfig, err)
	}
	return Params{Cfg: cfg}, nil
}

// validObject reports whether an acknowledgement's claimed object index
// is within range; clients additionally require the claimed index to
// match the transport-level sender, since channels are authenticated
// point-to-point links in the model.
func (p Params) validObject(id types.ObjectID) bool {
	return int(id) >= 0 && int(id) < p.Cfg.S
}

// fromObject reports whether an acknowledgement claiming to come from
// object id arrived over that object's authenticated link and names a
// valid object.
func (p Params) fromObject(from transport.NodeID, id types.ObjectID) bool {
	return from.Kind == transport.KindObject && types.ObjectID(from.Index) == id && p.validObject(id)
}

// client is what the writer and the reader share: the configuration,
// the connection, the tracer, and the record of the last operation.
type client struct {
	params Params
	conn   transport.Conn
	stats  OpStats
	trace  Tracer
}

func newClient(cfg quorum.Config, conn transport.Conn) (client, error) {
	p, err := NewParams(cfg)
	if err != nil {
		return client{}, err
	}
	return client{params: p, conn: conn, trace: nopTracer{}}, nil
}

// LastStats returns the complexity record of the last completed
// operation.
func (c *client) LastStats() OpStats { return c.stats }

// SetTracer installs a tracer (nil restores the no-op).
func (c *client) SetTracer(t Tracer) {
	if t == nil {
		t = nopTracer{}
	}
	c.trace = t
}

// broadcast sends msg to every base object 0..S−1 and returns the
// number of messages sent.
func (c *client) broadcast(msg wire.Msg) int {
	for i := 0; i < c.params.Cfg.S; i++ {
		c.conn.Send(transport.Object(types.ObjectID(i)), msg)
	}
	return c.params.Cfg.S
}
