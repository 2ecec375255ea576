package audit

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"medvault/internal/blockstore"
	"medvault/internal/checkpool"
	"medvault/internal/vcrypto"
)

// auditLog appends n events to a fresh log and returns their persisted
// payloads in log order, with the key and signer to reopen them.
func auditLog(t testing.TB, n int) ([][]byte, vcrypto.Key, *vcrypto.Signer) {
	t.Helper()
	signer, err := vcrypto.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	key, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	store := blockstore.NewMemory(0)
	l, err := Open(Config{Store: store, MACKey: key, Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(Event{
			Actor: fmt.Sprintf("dr-%d", i%13), Action: ActionRead,
			Record: fmt.Sprintf("p%d-enc-%d", i%97, i%5), Version: uint64(i%3 + 1),
			Outcome: OutcomeAllowed, Trace: fmt.Sprintf("%016x", i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var out [][]byte
	if err := store.Scan(func(_ blockstore.Ref, data []byte) error {
		out = append(out, append([]byte(nil), data...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out, key, signer
}

// storeOf persists payloads into a fresh store.
func storeOf(t testing.TB, payloads [][]byte) blockstore.Store {
	t.Helper()
	st := blockstore.NewMemory(0)
	for _, p := range payloads {
		if _, err := st.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// withProcs runs f at GOMAXPROCS n.
func withProcs(n int, f func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// TestAuditOpenReportsEarliestTamper: content hashes and MACs are checked on
// a worker pool, but a tampered log must fail exactly as a serial replay
// does — same error class and message, naming the earliest bad event — at
// any degree of parallelism and wherever the tamper sits relative to the
// pool's batches. Log.Verify over the same tampered events must return the
// serial walk's count and error.
func TestAuditOpenReportsEarliestTamper(t *testing.T) {
	const n = 3*checkpool.Batch + 5
	clean, key, signer := auditLog(t, n)

	edit := func(f func(*Event)) func([]byte) []byte {
		return func(p []byte) []byte {
			e, err := decodeEvent(p)
			if err != nil {
				t.Fatal(err)
			}
			e.MAC = append([]byte(nil), e.MAC...)
			f(&e)
			return encodeEvent(e)
		}
	}
	flipMAC := edit(func(e *Event) { e.MAC[7] ^= 0x01 })
	forgeActor := edit(func(e *Event) { e.Actor = "forged" })
	rehash := edit(func(e *Event) { e.Detail = "scrubbed"; e.Hash = eventHash(*e) })
	flipPrev := edit(func(e *Event) { e.PrevHash[31] ^= 0x80 })
	bumpSeq := edit(func(e *Event) { e.Seq += 1000 })
	truncate := func(p []byte) []byte { return p[:len(p)-3] }
	type edits = map[int]func([]byte) []byte
	const mid, last, b = n / 2, n - 1, checkpool.Batch
	cases := []struct {
		name  string
		edits edits
		want  error
		names string // how the error names the earliest bad event
	}{
		{"first-mac", edits{0: flipMAC}, ErrBadMAC, "at seq 0"},
		{"middle-mac", edits{mid: flipMAC}, ErrBadMAC, fmt.Sprintf("at seq %d", mid)},
		{"last-mac", edits{last: flipMAC}, ErrBadMAC, fmt.Sprintf("at seq %d", last)},
		{"first-content", edits{0: forgeActor}, ErrChainBroken, "content hash mismatch at seq 0"},
		{"middle-content", edits{mid: forgeActor}, ErrChainBroken, fmt.Sprintf("content hash mismatch at seq %d", mid)},
		{"last-content", edits{last: forgeActor}, ErrChainBroken, fmt.Sprintf("content hash mismatch at seq %d", last)},
		{"rehashed-content", edits{mid: rehash}, ErrBadMAC, fmt.Sprintf("at seq %d", mid)},
		{"first-prev-hash", edits{0: flipPrev}, ErrChainBroken, "prev-hash mismatch at seq 0"},
		{"middle-prev-hash", edits{mid: flipPrev}, ErrChainBroken, fmt.Sprintf("prev-hash mismatch at seq %d", mid)},
		{"last-prev-hash", edits{last: flipPrev}, ErrChainBroken, fmt.Sprintf("prev-hash mismatch at seq %d", last)},
		{"first-sequence", edits{0: bumpSeq}, ErrChainBroken, "sequence 1000, want 0"},
		{"middle-sequence", edits{mid: bumpSeq}, ErrChainBroken, fmt.Sprintf("sequence %d, want %d", mid+1000, mid)},
		{"last-sequence", edits{last: bumpSeq}, ErrChainBroken, fmt.Sprintf("sequence %d, want %d", last+1000, last)},
		{"two-macs", edits{b + 2: flipMAC, 2*b + 1: flipMAC}, ErrBadMAC, fmt.Sprintf("at seq %d", b+2)},
		{"two-macs-same-batch", edits{11: flipMAC, 3: flipMAC}, ErrBadMAC, "at seq 3"},
		{"content-then-mac-other-batch", edits{b - 1: forgeActor, b: flipMAC}, ErrChainBroken, fmt.Sprintf("content hash mismatch at seq %d", b-1)},
		{"link-before-mac", edits{mid: flipPrev, mid + 1: flipMAC}, ErrChainBroken, fmt.Sprintf("prev-hash mismatch at seq %d", mid)},
		{"mac-before-link", edits{mid: flipMAC, mid + 1: bumpSeq}, ErrBadMAC, fmt.Sprintf("at seq %d", mid)},
		{"mac-long-before-link", edits{5: flipMAC, last: flipPrev}, ErrBadMAC, "at seq 5"},
		{"mac-before-undecodable", edits{b: flipMAC, n - 2: truncate}, ErrBadMAC, fmt.Sprintf("at seq %d", b)},
		{"undecodable-before-mac", edits{4: truncate, n - 2: flipMAC}, ErrCorrupt, "field length 32 exceeds remaining 29"},
	}
	for _, tc := range cases {
		payloads := append([][]byte(nil), clean...)
		for i, f := range tc.edits {
			payloads[i] = f(payloads[i])
		}
		want := serialReplay(key, payloads)
		if !errors.Is(want, tc.want) || !strings.HasSuffix(want.Error(), tc.names) {
			t.Fatalf("%s: reference replay gave %v, want %v naming %q", tc.name, want, tc.want, tc.names)
		}
		// The in-memory twin of the tampered log, for Verify; an
		// undecodable payload cannot get into memory.
		var events []Event
		for _, p := range payloads {
			e, err := refDecodeEvent(p)
			if err != nil {
				events = nil
				break
			}
			events = append(events, e)
		}
		wantN, wantErr := serialVerify(key, events)
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				_, err := Open(Config{Store: storeOf(t, payloads), MACKey: key, Signer: signer})
				if got, exp := fmt.Sprint(err), "audit: replaying persisted log: "+want.Error(); !errors.Is(err, tc.want) || got != exp {
					t.Errorf("%s GOMAXPROCS=%d: Open error\n  %s\nwant (serial replay)\n  %s", tc.name, procs, got, exp)
				}
				if events == nil {
					return
				}
				l, err := Open(Config{Store: storeOf(t, clean), MACKey: key, Signer: signer})
				if err != nil {
					t.Fatal(err)
				}
				copy(l.events, events)
				if got, err := l.Verify(); got != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s GOMAXPROCS=%d: Verify = %d, %v; serial walk %d, %v", tc.name, procs, got, err, wantN, wantErr)
				}
			})
		}
	}
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			l, err := Open(Config{Store: storeOf(t, clean), MACKey: key, Signer: signer})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: clean log rejected: %v", procs, err)
			}
			if got, err := l.Verify(); err != nil || got != n {
				t.Fatalf("GOMAXPROCS=%d: Verify = %d, %v; want %d, nil", procs, got, err, n)
			}
		})
	}
}

// TestEventHashAndMACPinned pins one event's hash, MAC and encoding to the
// bytes the bytes.Buffer implementation produced, so persisted v2 chains
// keep verifying: any drift in the hashed or encoded layout fails here.
func TestEventHashAndMACPinned(t *testing.T) {
	const (
		wantHash = "78a09f93ccfaef6e45f122bb23c6eb9deb14f49a5c07d713880f1a27589d8067"
		wantMAC  = "cf715e798a03b14d96e2cd7c544dbc933ddd6fec9bb81d872ed4e40ed6fa80fa"
		wantEnc  = "0002000000000000002917979cfe3d85cd150000000464722d610000000b627265616b2d676c6173730000000870312d656e632d3000000000000000030000000664656e69656400000017656d657267656e63793a2045442061646d697373696f6e0000001030313233343536373839616263646566a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf78a09f93ccfaef6e45f122bb23c6eb9deb14f49a5c07d713880f1a27589d806700000020cf715e798a03b14d96e2cd7c544dbc933ddd6fec9bb81d872ed4e40ed6fa80fa"
	)
	var key vcrypto.Key
	for i := range key {
		key[i] = byte(i)
	}
	e := Event{
		Seq: 41, Timestamp: time.Unix(1700000000, 123456789).UTC(), Actor: "dr-a",
		Action: ActionBreakGlass, Record: "p1-enc-0", Version: 3, Outcome: OutcomeDenied,
		Detail: "emergency: ED admission", Trace: "0123456789abcdef",
	}
	for i := range e.PrevHash {
		e.PrevHash[i] = byte(0xA0 + i)
	}
	e.Hash = eventHash(e)
	if got := hex.EncodeToString(e.Hash[:]); got != wantHash {
		t.Errorf("eventHash = %s, want %s", got, wantHash)
	}
	if e.Hash != refEventHash(e) {
		t.Error("eventHash differs from the reference hash")
	}
	e.MAC = vcrypto.NewMACer(key).MAC(e.Hash[:])
	if got := hex.EncodeToString(e.MAC); got != wantMAC {
		t.Errorf("MAC = %s, want %s", got, wantMAC)
	}
	enc := encodeEvent(e)
	if got := hex.EncodeToString(enc); got != wantEnc {
		t.Errorf("encodeEvent = %s, want %s", got, wantEnc)
	}
	if got, err := decodeEvent(enc); err != nil || !reflect.DeepEqual(got, e) {
		t.Errorf("decodeEvent = %+v, %v; want %+v", got, err, e)
	}
	// A long event overflows eventHash's stack buffer and must still hash
	// the same bytes.
	e.Detail = strings.Repeat("d", 1000)
	if eventHash(e) != refEventHash(e) {
		t.Error("eventHash of a long event differs from the reference hash")
	}
}

// BenchmarkOpenReplay measures audit.Open replaying and verifying a
// 20 000-event chain of ward-round-shaped read events.
func BenchmarkOpenReplay(b *testing.B) {
	payloads, key, signer := auditLog(b, 20000)
	store := storeOf(b, payloads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(Config{Store: store, MACKey: key, Signer: signer}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppend measures one audit append (hash, MAC, encode, persist).
func BenchmarkAppend(b *testing.B) {
	_, key, signer := auditLog(b, 0)
	l, err := Open(Config{Store: blockstore.NewMemory(0), MACKey: key, Signer: signer})
	if err != nil {
		b.Fatal(err)
	}
	ev := Event{Actor: "dr-7", Action: ActionRead, Record: "p12-enc-3", Version: 2, Outcome: OutcomeAllowed, Trace: "00000000000000ab"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
}
