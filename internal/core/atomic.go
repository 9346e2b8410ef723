package core

import (
	"context"
	"fmt"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// AtomicSWSRReader upgrades the regular storage to an *atomic*
// single-writer single-reader register — the strongest semantics the
// paper's introduction discusses ([7], [9]) — without extra rounds.
//
// The classical gap between regular and atomic is the new/old
// inversion: two sequential reads returning timestamps out of order.
// With a single reader there are no cross-reader inversions, so
// enforcing per-reader timestamp monotonicity on top of regularity
// yields atomicity: pick the linearization point of a READ returning
// timestamp l just after WRITE l's effect (or the read's invocation if
// l repeats the previous read). The §5.1 cached reader already never
// goes backwards — its candidate set only contains timestamps at or
// above the cache — so the upgrade costs nothing beyond the cache the
// optimization maintains anyway. This mirrors the classical result
// that a regular SWSR register with monotone reads is atomic
// (Lamport, "On interprocess communication", 1986).
//
// The transformation is sound only for a single reader; constructing
// one demands cfg.R == 1 to keep the claim honest. (For multiple
// readers, atomicity over Byzantine base objects is exactly the regime
// where [7] needs R(t+b)+2t+b objects for fast reads — out of this
// paper's scope.)
type AtomicSWSRReader struct {
	inner *Reader
}

// NewAtomicSWSRReader returns the atomic single-reader client.
func NewAtomicSWSRReader(cfg quorum.Config, conn transport.Conn) (*AtomicSWSRReader, error) {
	if cfg.R != 1 {
		return nil, fmt.Errorf("%w: atomic SWSR transformation requires exactly one reader, got R=%d",
			ErrBadConfig, cfg.R)
	}
	inner, err := NewRegularReader(cfg, conn, 0, true)
	if err != nil {
		return nil, err
	}
	return &AtomicSWSRReader{inner: inner}, nil
}

// Read performs one atomic READ: two rounds, like the regular reader.
func (r *AtomicSWSRReader) Read(ctx context.Context) (types.TSVal, error) {
	got, err := r.inner.Read(ctx)
	if err != nil {
		return types.TSVal{}, err
	}
	// The cached regular reader guarantees got.TS ≥ cache.TS; assert the
	// invariant the atomicity argument rests on rather than trusting it.
	if cache := r.inner.Cache(); got.TS < cache.TS {
		return types.TSVal{}, fmt.Errorf("core: atomic invariant broken: read ts %d below cache %d", got.TS, cache.TS)
	}
	return got, nil
}

// LastStats returns the complexity record of the last completed READ.
func (r *AtomicSWSRReader) LastStats() OpStats { return r.inner.LastStats() }
