package provenance

import (
	"fmt"

	"medvault/internal/checkpool"
)

// Replaying or re-verifying a custody log is dominated by Ed25519: one
// signature check per event costs ~100µs, everything else (decode, index,
// prev-hash and event-hash checks) a few µs. The cheap checks must run in
// log order because each event links to its predecessor; the signature of
// an event depends on nothing but the event. So callers walk the log
// sequentially with checkLink and hand signatures to a checkpool.Pool,
// which checks them on every core while the walk continues. Every signature
// is still checked before the caller returns, and the caller reports the
// error of the earliest bad event in walk order — the same error a serial
// walk reports.

// sigJob is one event whose signature a pool worker checks. rec is caller
// bookkeeping (the record ordinal for VerifyAll).
type sigJob struct {
	rec int
	e   Event
}

func newSigPool() *checkpool.Pool[sigJob] {
	return checkpool.New(func() func(sigJob) error {
		return func(j sigJob) error { return checkSig(j.e) }
	})
}

// checkLink runs the cheap, order-dependent checks on e as the next link
// after chain: index, prev-hash, and event hash.
func checkLink(chain []Event, e Event) error {
	if e.Index != uint64(len(chain)) {
		return fmt.Errorf("%w: record %s: index %d, want %d", ErrChainBroken, e.Record, e.Index, len(chain))
	}
	var wantPrev [32]byte
	if len(chain) > 0 {
		wantPrev = chain[len(chain)-1].Hash
	}
	if e.PrevHash != wantPrev {
		return fmt.Errorf("%w: record %s: prev-hash mismatch at index %d", ErrChainBroken, e.Record, e.Index)
	}
	if eventHash(e) != e.Hash {
		return fmt.Errorf("%w: record %s: content hash mismatch at index %d", ErrChainBroken, e.Record, e.Index)
	}
	return nil
}

// checkSig verifies the custodian's signature over e's hash.
func checkSig(e Event) error {
	if err := e.SignerKey.Verify(e.Hash[:], e.Signature); err != nil {
		return fmt.Errorf("%w: record %s index %d: %v", ErrBadSignature, e.Record, e.Index, err)
	}
	return nil
}

// verifyLink validates e as the next link after chain, signature included.
func verifyLink(chain []Event, e Event) error {
	if err := checkLink(chain, e); err != nil {
		return err
	}
	return checkSig(e)
}
