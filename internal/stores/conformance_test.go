package stores_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"medvault/internal/clock"
	"medvault/internal/core"
	"medvault/internal/ehr"
	"medvault/internal/stores"
	"medvault/internal/stores/cryptonly"
	"medvault/internal/stores/objstore"
	"medvault/internal/stores/reldb"
	"medvault/internal/vcrypto"
	"medvault/internal/worm"
)

// newStores builds one of each baseline, a WORM store, and the hybrid vault
// adapter, all on a retention clock already advanced past every schedule so
// Dispose is exercisable.
func newStores(t *testing.T) []stores.Store {
	t.Helper()
	k1, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k3, err := vcrypto.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	vc := clock.NewVirtual(time.Date(2080, 1, 1, 0, 0, 0, 0, time.UTC)) // decades after record CreatedAt
	v, err := core.OpenCluster(core.Config{Name: "conformance", Master: k3, Clock: vc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	adapter, err := core.NewAdapter(v)
	if err != nil {
		t.Fatal(err)
	}
	return []stores.Store{
		cryptonly.New(k1),
		reldb.New(),
		objstore.New(),
		worm.New(worm.Config{Master: k2, Clock: vc}),
		adapter,
	}
}

func corpus(n int) []ehr.Record {
	return ehr.NewGenerator(99, time.Time{}).Corpus(n)
}

func TestPutGetRoundTrip(t *testing.T) {
	recs := corpus(20)
	for _, s := range newStores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			for _, r := range recs {
				if err := s.Put(r); err != nil {
					t.Fatalf("Put(%s): %v", r.ID, err)
				}
			}
			if s.Len() != len(recs) {
				t.Errorf("Len = %d, want %d", s.Len(), len(recs))
			}
			for _, r := range recs {
				got, err := s.Get(r.ID)
				if err != nil {
					t.Fatalf("Get(%s): %v", r.ID, err)
				}
				if !reflect.DeepEqual(got, r) {
					t.Errorf("Get(%s) content mismatch", r.ID)
				}
			}
		})
	}
}

func TestPutDuplicateRejected(t *testing.T) {
	r := corpus(1)[0]
	for _, s := range newStores(t) {
		if err := s.Put(r); err != nil {
			t.Fatalf("%s: Put: %v", s.Name(), err)
		}
		if err := s.Put(r); !errors.Is(err, stores.ErrExists) {
			t.Errorf("%s: duplicate Put: %v", s.Name(), err)
		}
	}
}

func TestGetMissing(t *testing.T) {
	for _, s := range newStores(t) {
		if _, err := s.Get("ghost"); !errors.Is(err, stores.ErrNotFound) {
			t.Errorf("%s: Get(ghost): %v", s.Name(), err)
		}
		if err := s.Dispose("ghost"); !errors.Is(err, stores.ErrNotFound) {
			t.Errorf("%s: Dispose(ghost): %v", s.Name(), err)
		}
	}
}

func TestPutRejectsInvalidRecord(t *testing.T) {
	for _, s := range newStores(t) {
		if err := s.Put(ehr.Record{ID: "x"}); err == nil {
			t.Errorf("%s: invalid record accepted", s.Name())
		}
	}
}

func TestSearchAcrossModels(t *testing.T) {
	recs := corpus(60)
	for _, s := range newStores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			for _, r := range recs {
				if err := s.Put(r); err != nil {
					t.Fatal(err)
				}
			}
			// Ground truth by direct scan of the corpus.
			kw := ehr.CommonCondition()
			var expected []string
			for _, r := range recs {
				if bytes.Contains([]byte(r.SearchText()), []byte(kw)) {
					expected = append(expected, r.ID)
				}
			}
			got, err := s.Search(kw)
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			if len(got) != len(expected) {
				t.Errorf("Search(%s) = %d hits, want %d", kw, len(got), len(expected))
			}
			if hits, err := s.Search("zzznonexistent"); err != nil || len(hits) != 0 {
				t.Errorf("Search(miss) = %v, %v", hits, err)
			}
		})
	}
}

func TestCorrectSemantics(t *testing.T) {
	g := ehr.NewGenerator(5, time.Time{})
	for _, s := range newStores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			orig := g.Next()
			if err := s.Put(orig); err != nil {
				t.Fatal(err)
			}
			corr := g.Correction(orig)
			err := s.Correct(corr)
			if s.Name() == "worm" {
				if !errors.Is(err, stores.ErrUnsupported) {
					t.Fatalf("WORM accepted a correction: %v", err)
				}
				// Content unchanged.
				got, gerr := s.Get(orig.ID)
				if gerr != nil || !reflect.DeepEqual(got, orig) {
					t.Errorf("WORM content changed after refused correction")
				}
				return
			}
			if err != nil {
				t.Fatalf("Correct: %v", err)
			}
			got, err := s.Get(orig.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, corr) {
				t.Errorf("Get after Correct returned stale content")
			}
			// Correcting a missing record fails.
			missing := g.Next()
			if err := s.Correct(missing); !errors.Is(err, stores.ErrNotFound) {
				t.Errorf("Correct(missing): %v", err)
			}
		})
	}
}

func TestDisposeRemovesRecord(t *testing.T) {
	recs := corpus(5)
	for _, s := range newStores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			for _, r := range recs {
				if err := s.Put(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Dispose(recs[2].ID); err != nil {
				t.Fatalf("Dispose: %v", err)
			}
			if _, err := s.Get(recs[2].ID); !errors.Is(err, stores.ErrNotFound) && err == nil {
				t.Errorf("Get after Dispose returned a record")
			}
			if s.Len() != len(recs)-1 {
				t.Errorf("Len = %d, want %d", s.Len(), len(recs)-1)
			}
			// Search no longer returns the disposed record.
			hits, err := s.Search(ehr.CommonCondition())
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range hits {
				if id == recs[2].ID {
					t.Error("disposed record still searchable")
				}
			}
		})
	}
}

func TestVerifyCleanStores(t *testing.T) {
	recs := corpus(15)
	for _, s := range newStores(t) {
		for _, r := range recs {
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Verify(); err != nil {
			t.Errorf("%s: clean store failed Verify: %v", s.Name(), err)
		}
		if s.StorageBytes() <= 0 {
			t.Errorf("%s: StorageBytes = %d", s.Name(), s.StorageBytes())
		}
		if len(s.RawBytes()) == 0 {
			t.Errorf("%s: RawBytes empty", s.Name())
		}
	}
}
