package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"medvault/internal/ehr"
)

// opKind is one kind of call into core.API.
type opKind uint8

const (
	opGet         opKind = iota // GetCtx of a stored record
	opProbe                     // GetCtx of an ID that was never stored
	opPut                       // PutCtx of a new record
	opCorrect                   // CorrectCtx of a stored record
	opDenyWrite                 // CorrectCtx by a nurse: an expected denial
	opSearch                    // SearchCtx for a condition keyword
	opAuditRecord               // AuditEventsCtx by record
	opAuditActor                // AuditEventsCtx by actor
	opDisclosures               // AccountingOfDisclosuresCtx for an MRN
	numKinds
)

var kindNames = [numKinds]string{"get", "probe", "put", "correct", "deny_write",
	"search", "audit_record", "audit_actor", "disclosures"}

// outcome is what an op is expected to return. Expected errors are
// successes; anything else is a failure.
type outcome uint8

const (
	wantOK outcome = iota
	wantDenied
	wantNotFound
)

// actors are the principals every workload runs as, with their
// authz.StandardRoles role.
var actors = []struct{ id, role string }{
	{"dr-0", "physician"}, {"dr-1", "physician"}, {"dr-2", "physician"}, {"dr-3", "physician"},
	{"rn-0", "nurse"}, {"rn-1", "nurse"},
	{"co-0", "compliance-officer"},
}

const (
	firstNurse = 4
	compliance = 6
	numProbes  = 64 // distinct unknown IDs; repeats exercise the negative cache
)

// op is one generated call. rec is a record index, a probe number, a
// keyword index or an actor index, by kind.
type op struct {
	kind  opKind
	actor uint8
	want  outcome
	rec   int32
}

// target picks the record a read or write addresses.
type target uint8

const (
	tHot     target = iota // Zipf over the preloaded records
	tUniform               // uniform over the preloaded records
	tOwn                   // uniform over the records this client wrote
)

// weighted is one entry of a client's op mix, in parts per 10 000.
type weighted struct {
	kind   opKind
	target target
	parts  int
}

// The hot set's Zipf parameters: P(rank k) ∝ (zipfV + k)^-zipfS. With 800
// records the hottest gets about 3% of hot-set traffic and the top 100
// about 60%, so no single record's stripe lock dominates.
const (
	zipfS = 1.1
	zipfV = 8
)

// spec defines a workload: the store it runs on, the set-up, and each
// client's op mix and nominal rate. The op count of a run is rate × seconds,
// so a given seed and run length always issue the same op sequence and
// leave the same end state.
type spec struct {
	name             string
	shards           int
	preload          int   // records stored during set-up
	history          int   // set-up reads that build audit history
	bodyMin, bodyMax int   // record body size range, bytes
	dekCache         int   // per-shard core.Config.DEKCacheEntries (0 = default)
	blockCache       int64 // per-shard core.Config.BlockCacheBytes (0 = default)
	rate             [2]int
	mix              [2][]weighted
}

var workloads = []spec{
	{
		// Point traffic on a cache-resident hot set: per-op CPU dominates.
		name: "ward_round", shards: 1, preload: 800, bodyMin: 1 << 10, bodyMax: 4 << 10,
		rate: [2]int{7000, 7000},
		mix:  [2][]weighted{wardMix, wardMix},
	},
	{
		// Write-heavy intake bound by fsync; the read caches do nothing.
		name: "admission_burst", shards: 1, preload: 1000, bodyMin: 512, bodyMax: 16 << 10,
		rate: [2]int{1000, 1000},
		mix:  [2][]weighted{admissionMix, admissionMix},
	},
	{
		// Compliance queries over a long history on a store larger than its
		// caches, while a second client's reads keep appending audit events.
		// Each shard caches 128 DEKs and 1 MiB of blocks, so the corpus
		// (2 500 records, about 21 MiB of ciphertext) is about 5× the four
		// shards' caches together, as a full-size store is 5× its
		// default-sized caches.
		name: "compliance_review", shards: 4, preload: 2500, history: 5000,
		bodyMin: 4 << 10, bodyMax: 12 << 10,
		dekCache: 128, blockCache: 1 << 20,
		rate: [2]int{90, 5500},
		mix:  [2][]weighted{reviewQueryMix, reviewReadMix},
	},
}

var (
	wardMix = []weighted{
		{opGet, tHot, 8968}, {opProbe, 0, 400}, {opCorrect, tHot, 300}, {opPut, 0, 200},
		{opDenyWrite, tHot, 100},
		{opSearch, 0, 15}, {opAuditRecord, tHot, 8}, {opAuditActor, 0, 3}, {opDisclosures, tHot, 6},
	}
	admissionMix = []weighted{
		{opPut, 0, 6700}, {opCorrect, tOwn, 2140}, {opGet, tOwn, 800}, {opDenyWrite, tOwn, 100},
		{opSearch, 0, 100}, {opAuditRecord, tOwn, 70}, {opAuditActor, 0, 30}, {opDisclosures, tOwn, 60},
	}
	reviewQueryMix = []weighted{
		{opSearch, 0, 3500}, {opAuditRecord, tUniform, 2400}, {opAuditActor, 0, 1100},
		{opDisclosures, tUniform, 3000},
	}
	reviewReadMix = []weighted{
		{opGet, tUniform, 9600}, {opPut, 0, 200}, {opProbe, 0, 200},
	}
)

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// plan is a workload's generated input: what set-up stores and reads, and
// each client's op sequence.
type plan struct {
	spec
	seed    int64
	clients [2][]op
	history []op
	w       *world
	pre     []int // preloaded records per condition
	records int   // one past the highest record index any op stores
}

// preCount is the number of preloaded records with condition cond.
func (p *plan) preCount(cond int) int { return p.pre[cond] }

// makePlan generates the whole input of a run from the seed.
func makePlan(s spec, seed int64, seconds int) *plan {
	p := &plan{spec: s, seed: seed, w: newWorld(seed, s), records: s.preload}
	p.pre = make([]int, len(p.w.conds))
	for i := 0; i < s.preload; i++ {
		p.pre[p.w.condition(i)]++
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(s.name))))
	perm := rng.Perm(s.preload) // Zipf rank -> record index
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(s.preload-1))
	for i := 0; i < s.history; i++ {
		p.history = append(p.history, op{kind: opGet, actor: uint8(rng.Intn(firstNurse)),
			rec: int32(rng.Intn(s.preload))})
	}
	for c := 0; c < 2; c++ {
		n := s.rate[c] * seconds
		total := 0
		for _, m := range s.mix[c] {
			total += m.parts
		}
		own := []int32{} // records this client may write
		for i := c; i < s.preload; i += 2 {
			own = append(own, int32(i))
		}
		puts, searches, actorQueries := 0, rng.Intn(len(p.w.conds)), rng.Intn(compliance)
		// Kinds follow a smooth weighted round-robin from seeded starting
		// credits: every stretch of the sequence holds each kind in its
		// share, so rare, costly queries land evenly across rounds instead
		// of in random clumps.
		credit := make([]int, len(s.mix[c]))
		for k := range credit {
			credit[k] = rng.Intn(total)
		}
		ops := make([]op, 0, n)
		for len(ops) < n {
			best := 0
			for k, m := range s.mix[c] {
				credit[k] += m.parts
				if credit[k] > credit[best] {
					best = k
				}
			}
			credit[best] -= total
			m := s.mix[c][best]
			pick := func() int32 {
				switch m.target {
				case tHot:
					return int32(perm[zipf.Uint64()])
				case tUniform:
					return int32(rng.Intn(s.preload))
				}
				return own[rng.Intn(len(own))]
			}
			o := op{kind: m.kind, actor: uint8(rng.Intn(firstNurse))}
			switch m.kind {
			case opGet:
				o.rec = pick()
				if m.target == tHot && rng.Intn(4) == 0 {
					o.actor = uint8(firstNurse + rng.Intn(2))
					if p.w.category(int(o.rec)) == ehr.CategoryImaging {
						o.want = wantDenied
					}
				}
			case opProbe:
				o.rec, o.want = int32(rng.Intn(numProbes)), wantNotFound
			case opPut:
				o.rec = int32(s.preload + 2*puts + c)
				puts++
				p.records = max(p.records, int(o.rec)+1)
				own = append(own, o.rec)
			case opCorrect:
				// Clients write disjoint records, so each record's version
				// sequence is fixed by the seed whatever the interleaving.
				o.rec = pick()
				for int(o.rec)%2 != c {
					o.rec = pick()
				}
			case opDenyWrite:
				o.rec, o.actor, o.want = pick(), uint8(firstNurse+rng.Intn(2)), wantDenied
			case opSearch:
				// Keywords cycle, so every run searches the same mix of
				// result sizes.
				o.rec = int32(searches % len(p.w.conds))
				searches++
			case opAuditRecord, opDisclosures:
				o.rec, o.actor = pick(), compliance
			case opAuditActor:
				o.rec, o.actor = int32(actorQueries%compliance), compliance
				actorQueries++
			}
			ops = append(ops, o)
		}
		p.clients[c] = ops
	}
	return p
}

// digest hashes the generated input, so two plans can be compared.
func (p *plan) digest() string {
	h := sha256.New()
	var b [10]byte
	put := func(ops []op) {
		for _, o := range ops {
			b[0], b[1], b[2] = byte(o.kind), o.actor, byte(o.want)
			binary.LittleEndian.PutUint32(b[3:], uint32(o.rec))
			h.Write(b[:7])
		}
	}
	put(p.history)
	put(p.clients[0])
	put(p.clients[1])
	for i := 0; i < p.preload; i++ {
		r := p.w.record(i, 1)
		h.Write([]byte(r.ID + r.Title + r.Body))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// expectedErrors counts the ops planned to be denied and to miss.
func (p *plan) expectedErrors() (denied, notFound int) {
	for _, ops := range [][]op{p.history, p.clients[0], p.clients[1]} {
		for _, o := range ops {
			switch o.want {
			case wantDenied:
				denied++
			case wantNotFound:
				notFound++
			}
		}
	}
	return denied, notFound
}

// world derives every record's content from the seed, so the benchmark can
// regenerate any version for checking instead of holding bodies in memory
// (which would inflate heap_live_mb).
type world struct {
	seed             uint64
	bodyMin, bodyMax int
	conds            []string
}

func newWorld(seed int64, s spec) *world {
	return &world{seed: uint64(seed), bodyMin: s.bodyMin, bodyMax: s.bodyMax, conds: ehr.ConditionNames()}
}

// mix64 is the splitmix64 finaliser: a cheap, well-spread hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func recordID(i int) string { return "r-" + strconv.Itoa(i) }

func probeID(i int) string { return "x-" + strconv.Itoa(i) }

// recordIndex inverts recordID; ok is false for any other ID.
func recordIndex(id string) (int, bool) {
	if !strings.HasPrefix(id, "r-") {
		return 0, false
	}
	i, err := strconv.Atoi(id[2:])
	return i, err == nil
}

func mrnOf(i int) string { return "mrn-" + strconv.Itoa(i/3) }

// category: 60% clinical, 20% lab, 20% imaging — all physician-readable,
// imaging not nurse-readable.
func (w *world) category(i int) ehr.Category {
	switch i % 10 {
	case 6, 7:
		return ehr.CategoryLab
	case 8, 9:
		return ehr.CategoryImaging
	}
	return ehr.CategoryClinical
}

// condition draws the record's condition with the same geometric skew as
// ehr.Generator, so keyword result sizes range from half the corpus down
// to a handful.
func (w *world) condition(i int) int {
	h := mix64(w.seed ^ uint64(i)*0x51)
	c := 0
	for c < len(w.conds)-1 && h&1 == 0 {
		c++
		h >>= 1
	}
	return c
}

// fillers are the words record bodies are made of. None is a condition
// keyword, so search results are exactly the records of that condition.
var fillers = strings.Fields(`patient reports stable vitals afebrile alert oriented
follow up plan medication dosage unchanged reviewed labs imaging ordered
referral consult noted history denies pain shortness of breath chest
tolerating diet ambulating independently discharge instructions provided
family updated bedside nursing assessment wound clean dry intact`)

// record returns version ver (1-based) of record i.
func (w *world) record(i, ver int) ehr.Record {
	h := mix64(w.seed ^ uint64(i)<<20 ^ uint64(ver))
	size := w.bodyMin + int(h%uint64(w.bodyMax-w.bodyMin+1))
	cond := w.conds[w.condition(i)]
	var b strings.Builder
	b.Grow(size + 16)
	b.WriteString(cond)
	for b.Len() < size {
		h = mix64(h)
		b.WriteByte(' ')
		b.WriteString(fillers[h%uint64(len(fillers))])
	}
	return ehr.Record{
		ID:        recordID(i),
		Patient:   "Patient " + strconv.Itoa(i/3),
		MRN:       mrnOf(i),
		Category:  w.category(i),
		Author:    actors[int(mix64(h)%firstNurse)].id,
		CreatedAt: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Title:     "Encounter note: " + cond,
		Body:      b.String()[:size],
		Codes:     []string{"c" + strconv.Itoa(w.condition(i))},
	}
}

// matches reports whether got is exactly version ver of record i.
func (w *world) matches(got ehr.Record, i, ver int) bool {
	want := w.record(i, ver)
	if len(got.Codes) != 1 || got.Codes[0] != want.Codes[0] {
		return false
	}
	return got.ID == want.ID && got.Patient == want.Patient && got.MRN == want.MRN &&
		got.Category == want.Category && got.Author == want.Author &&
		got.CreatedAt.Equal(want.CreatedAt) && got.Title == want.Title && got.Body == want.Body
}
