package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"medvault/internal/ehr"
	"medvault/internal/vcrypto"
)

// sealTable wraps a version 2 table as a snapshot sealed under master.
func sealTable(tb testing.TB, master vcrypto.Key, table []byte) []byte {
	tb.Helper()
	sealed, err := vcrypto.Seal(NewSSE(master).valueKey, table, sseHeader)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(sseHeader)
	writeBytes(&buf, sealed)
	return buf.Bytes()
}

// randomCorpus fills s with docs drawn from vocab, including corrections
// (re-adds under an existing ID) and removals.
func randomCorpus(rng *rand.Rand, s *SSE, vocab []string) {
	n := 1 + rng.Intn(60)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("doc-%d", rng.Intn(n))
		switch rng.Intn(8) {
		case 0:
			s.Remove(id)
		default:
			words := make([]string, 1+rng.Intn(8))
			for j := range words {
				words[j] = vocab[rng.Intn(len(vocab))]
			}
			s.Add(id, strings.Join(words, " "))
		}
	}
}

// sameAnswers reports where a and b answer a query differently.
func sameAnswers(t *testing.T, a, b *SSE, vocab []string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Errorf("Len %d != %d", a.Len(), b.Len())
	}
	for i, w := range append(vocab, "absent") {
		if got, want := a.Search(w), b.Search(w); !reflect.DeepEqual(got, want) {
			t.Errorf("Search(%q) = %v, want %v", w, got, want)
		}
		other := vocab[(i*7+3)%len(vocab)]
		if got, want := a.SearchAll(w, other), b.SearchAll(w, other); !reflect.DeepEqual(got, want) {
			t.Errorf("SearchAll(%q, %q) = %v, want %v", w, other, got, want)
		}
	}
}

func TestLoadSSEReadsV1(t *testing.T) {
	master := testMaster(t)
	vocab := []string{"asthma", "cancer", "diabetes", "fracture", "hypertension",
		"migraine", "oncology", "sepsis", "stroke", "ulcer", "anemia", "gout"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSSE(master)
		randomCorpus(rng, s, vocab)
		v1, err := snapshotV1(s)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		from1, err := LoadSSE(master, v1)
		if err != nil {
			t.Fatalf("seed %d: loading v1: %v", seed, err)
		}
		from2, err := LoadSSE(master, v2)
		if err != nil {
			t.Fatalf("seed %d: loading v2: %v", seed, err)
		}
		sameAnswers(t, from1, from2, vocab)
		sameAnswers(t, from2, s, vocab)
		// A v1 index writes v2 from then on.
		again, err := from1.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(again, sseHeader) {
			t.Fatalf("seed %d: resnapshot of a v1 load is not v2", seed)
		}
	}
}

func TestLoadSSEV1Tampered(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	s.Add("d1", "alpha beta")
	v1, err := snapshotV1(s)
	if err != nil {
		t.Fatal(err)
	}
	// The first postings blob starts after the header, the token count and
	// the first token string (4-byte length plus 64 hex digits).
	bad := append([]byte(nil), v1...)
	bad[6+4+68+4+20] ^= 1
	if _, err := LoadSSE(master, bad); !errors.Is(err, vcrypto.ErrDecrypt) {
		t.Errorf("tampered v1 postings: %v", err)
	}
	if _, err := LoadSSE(testMaster(t), v1); !errors.Is(err, vcrypto.ErrDecrypt) {
		t.Errorf("v1 under the wrong key: %v", err)
	}
}

// TestSSEInternedSecureDeletion checks that a freed document ordinal, when
// reused, and a correction both leave nothing of the old document behind:
// not in a search, not in Len, and not in the decrypted snapshot.
func TestSSEInternedSecureDeletion(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	s.Add("patient-removed-0001", "oncology cancer chemotherapy")
	s.Add("patient-kept-0002", "cancer screening mammography")
	freed := s.docOrd["patient-removed-0001"]
	s.Remove("patient-removed-0001")
	s.Add("patient-new-0003", "asthma inhaler")
	if got := s.docOrd["patient-new-0003"]; got != freed {
		t.Fatalf("new doc got ordinal %d, want the freed %d", got, freed)
	}
	// Correction: the kept patient's screening note is rewritten.
	s.Add("patient-kept-0002", "cancer remission")

	for kw, want := range map[string][]string{
		"oncology":     {},
		"chemotherapy": {},
		"screening":    {},
		"mammography":  {},
		"cancer":       {"patient-kept-0002"},
		"remission":    {"patient-kept-0002"},
		"asthma":       {"patient-new-0003"},
		"inhaler":      {"patient-new-0003"},
	} {
		if got := s.Search(kw); !reflect.DeepEqual(got, want) {
			t.Errorf("Search(%q) = %v, want %v", kw, got, want)
		}
	}
	if got := s.SearchAll("cancer", "oncology"); got != nil {
		t.Errorf("SearchAll(cancer, oncology) = %v", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if len(s.tokOrd) != 4 {
		t.Errorf("%d live tokens, want 4 (cancer, remission, asthma, inhaler)", len(s.tokOrd))
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plain := openTable(t, master, snap)
	if bytes.Contains(plain, []byte("patient-removed-0001")) {
		t.Error("removed doc ID in the decrypted snapshot")
	}
	for _, w := range []string{"oncology", "chemotherapy", "screening", "mammography"} {
		tok := s.token(w)
		if bytes.Contains(plain, tok[:]) {
			t.Errorf("token of %q, held only by a removed or corrected doc, in the decrypted snapshot", w)
		}
	}
	for _, w := range []string{"cancer", "remission", "asthma", "inhaler"} {
		tok := s.token(w)
		if !bytes.Contains(plain, tok[:]) {
			t.Errorf("live token of %q missing from the decrypted snapshot", w)
		}
	}
	re, err := LoadSSE(master, snap)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, re, s, []string{"oncology", "cancer", "screening", "remission", "asthma", "inhaler"})
}

// TestSnapshotHidesCounts: a v2 snapshot shows one blob, so two indexes
// with the same table size but different token counts and posting sizes
// are indistinguishable by anything but that size.
func TestSnapshotHidesCounts(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	s.Add("d1", "alpha beta gamma")
	s.Add("d2", "alpha")
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	plain := openTable(t, master, snap)
	if want := len(sseHeader) + 4 + len(plain) + 28; len(snap) != want {
		t.Errorf("snapshot is %d bytes, want header+length+sealed table = %d", len(snap), want)
	}
}

// TestLoadSSECorruptTable feeds sealed tables with a bad count, length or
// ordinal: each must fail with ErrCorrupt, without allocating for the
// count it claims.
func TestLoadSSECorruptTable(t *testing.T) {
	master := testMaster(t)
	tok := bytes.Repeat([]byte{7}, 32)
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, table := range map[string][]byte{
		"empty":             nil,
		"huge token count":  uv(1 << 60),
		"huge doc count":    cat(uv(1), tok, uv(1<<60, 0)),
		"huge ID length":    cat(uv(1), tok, uv(1, 1<<60)),
		"huge ordinal list": cat(uv(1), tok, uv(1, 1), []byte("d"), uv(1<<60, 0)),
		"ordinal past end":  cat(uv(1), tok, uv(1, 1), []byte("d"), uv(1, 1)),
		"duplicate ordinal": cat(uv(1), tok, uv(1, 1), []byte("d"), uv(2, 0, 0)),
		"duplicate doc":     cat(uv(1), tok, uv(2, 1), []byte("d"), uv(1, 0, 1), []byte("d"), uv(1, 0)),
		"truncated varint":  cat(uv(1), tok, []byte{0x80}),
		"trailing bytes":    cat(uv(0, 0), []byte{0}),
	} {
		snap := sealTable(t, master, table)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadSSE(master, snap)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, grew)
		}
	}
	if _, err := LoadSSE(master, sealTable(t, master, uv(0, 0))); err != nil {
		t.Errorf("empty index table: %v", err)
	}
}

// TestSSEConcurrent drives adds, corrections, removals, searches and
// snapshots from several goroutines; run it under -race. Each writer owns
// its IDs, so the end state is known.
func TestSSEConcurrent(t *testing.T) {
	master := testMaster(t)
	s := NewSSE(master)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-doc-%d", w, i%20)
				switch i % 5 {
				case 0, 1, 2:
					s.Add(id, fmt.Sprintf("shared term%d writer%d", i%7, w))
				case 3:
					s.Remove(id)
				default:
					s.SearchAll("shared", fmt.Sprintf("writer%d", w))
					if _, err := s.Snapshot(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	re, err := LoadSSE(master, mustSnapshot(t, s))
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, re, s, []string{"shared", "term0", "term6", "writer0", "writer3"})
	for w := 0; w < 4; w++ {
		// Doc k only ever sees op k%5: added for k%5 < 3, so 12 of 20.
		if got := len(s.Search(fmt.Sprintf("writer%d", w))); got != 12 {
			t.Errorf("writer%d: %d docs, want 12", w, got)
		}
	}
}

func mustSnapshot(t *testing.T, s *SSE) []byte {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func FuzzTokenize(f *testing.F) {
	f.Add("The patient, J. Doe, has Stage-II CANCER (confirmed). cancer markers: CA-125 elevated!")
	f.Add("Ünïcödé ΣΊΣΥΦΟΣ İstanbul KELVIN K straße ﬁ 12½ ٣٤ \xff\xfe bad utf8")
	f.Add("")
	f.Add("a an the of x y z")
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Tokenize(text), tokenizeReference(text); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, want %q", text, got, want)
		}
	})
}

// note is a clinical note of about 8 KB drawn from the synthetic EHR.
func note() string {
	var b strings.Builder
	g := ehr.NewGenerator(1, time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	for b.Len() < 8<<10 {
		b.WriteString(g.Next().SearchText())
		b.WriteByte('\n')
	}
	return b.String()
}

var sinkWords []string

func BenchmarkTokenize(b *testing.B) {
	text := note()
	for name, fn := range map[string]func(string) []string{
		"onepass":   Tokenize,
		"reference": tokenizeReference,
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkWords = fn(text)
			}
		})
	}
}
