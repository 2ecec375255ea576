package attack

import (
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

var epoch = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

// seedStore populates s with records, correcting the victim when the model
// supports corrections, and returns (victim, other).
func seedStore(t *testing.T, s stores.Store) (string, string) {
	t.Helper()
	g := ehr.NewGenerator(1, epoch)
	recs := g.Corpus(6)
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	victim := recs[0]
	_ = s.Correct(g.Correction(victim)) // WORM refuses; that is fine
	return victim.ID, recs[1].ID
}

func makeAll(t *testing.T) map[string]func() (stores.Store, string, string) {
	t.Helper()
	return map[string]func() (stores.Store, string, string){
		"crypt-only": func() (stores.Store, string, string) {
			k, _ := vcrypto.NewKey()
			s := cryptonly.New(k)
			v, o := seedStore(t, s)
			return s, v, o
		},
		"relational": func() (stores.Store, string, string) {
			s := reldb.New()
			v, o := seedStore(t, s)
			return s, v, o
		},
		"object-store": func() (stores.Store, string, string) {
			s := objstore.New()
			v, o := seedStore(t, s)
			return s, v, o
		},
		"worm": func() (stores.Store, string, string) {
			k, _ := vcrypto.NewKey()
			s := worm.New(worm.Config{Master: k, Clock: clock.NewVirtual(epoch)})
			v, o := seedStore(t, s)
			return s, v, o
		},
		"medvault": func() (stores.Store, string, string) {
			k, _ := vcrypto.NewKey()
			vlt, err := core.OpenCluster(core.Config{Name: "attack-target", Master: k, Clock: clock.NewVirtual(epoch)}, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { vlt.Close() })
			s, err := core.NewAdapter(vlt)
			if err != nil {
				t.Fatal(err)
			}
			v, o := seedStore(t, s)
			return s, v, o
		},
	}
}

// expected is the detection matrix the paper's analysis predicts — the
// ground truth E1/E3 report against. Keys: store -> attack -> outcome.
var expected = map[string]map[Kind]string{
	"crypt-only": {
		BitFlip:          "detected",      // GCM tag
		FieldRewrite:     "not-mountable", // ciphertext, no key in the attack
		Replay:           "UNDETECTED",    // old valid ciphertext replays
		CiphertextSwap:   "detected",      // AAD binds record ID
		CatalogSwap:      "n/a",
		MetadataRollback: "n/a",
	},
	"relational": {
		BitFlip:          "UNDETECTED", // flips mid-row sometimes corrupt decoding; see test note
		FieldRewrite:     "UNDETECTED",
		Replay:           "UNDETECTED",
		CiphertextSwap:   "n/a",
		CatalogSwap:      "n/a",
		MetadataRollback: "n/a", // corrections overwrite; there is no version metadata to truncate
	},
	"object-store": {
		BitFlip:          "detected", // content addressing
		FieldRewrite:     "n/a",
		Replay:           "UNDETECTED", // mutable catalog
		CiphertextSwap:   "n/a",
		CatalogSwap:      "UNDETECTED",
		MetadataRollback: "n/a", // its catalog rollback IS the Replay row
	},
	"worm": {
		BitFlip:          "detected",
		FieldRewrite:     "not-mountable",
		Replay:           "n/a", // write-once: no old version exists to replay
		CiphertextSwap:   "n/a",
		CatalogSwap:      "n/a",
		MetadataRollback: "n/a", // no corrections, nothing to hide
	},
	"medvault": {
		BitFlip:          "detected",
		FieldRewrite:     "not-mountable",
		Replay:           "n/a", // corrections are append-only versions, not in-place state
		CiphertextSwap:   "n/a",
		CatalogSwap:      "n/a",
		MetadataRollback: "detected", // commitment-log size check exposes the truncation
	},
}

func TestCampaignMatchesExpectedMatrix(t *testing.T) {
	for name, mk := range makeAll(t) {
		t.Run(name, func(t *testing.T) {
			for _, res := range Campaign(mk) {
				want, ok := expected[name][res.Attack]
				if !ok {
					t.Fatalf("no expectation for %s/%s", name, res.Attack)
				}
				got := res.Outcome()
				// The relational bit-flip may corrupt the row beyond
				// decoding, which Verify reports — accept either outcome
				// there; the meaningful attack is field-rewrite.
				if name == "relational" && res.Attack == BitFlip {
					if got != "UNDETECTED" && got != "detected" {
						t.Errorf("relational bit-flip outcome %q", got)
					}
					continue
				}
				if got != want {
					t.Errorf("%s under %s: got %s, want %s (%s)", name, res.Attack, got, want, res.Detail)
				}
			}
		})
	}
}

func TestMedvaultDetectsEverythingMountable(t *testing.T) {
	mk := makeAll(t)["medvault"]
	for _, res := range Campaign(mk) {
		if res.Mounted && !res.Detected {
			t.Errorf("medvault failed to detect %s", res.Attack)
		}
	}
}

func TestResultOutcomeStrings(t *testing.T) {
	cases := []struct {
		r    Result
		want string
	}{
		{Result{}, "n/a"},
		{Result{Applicable: true}, "not-mountable"},
		{Result{Applicable: true, Mounted: true}, "UNDETECTED"},
		{Result{Applicable: true, Mounted: true, Detected: true}, "detected"},
	}
	for _, c := range cases {
		if got := c.r.Outcome(); got != c.want {
			t.Errorf("Outcome(%+v) = %q, want %q", c.r, got, c.want)
		}
	}
}
