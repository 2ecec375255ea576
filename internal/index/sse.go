package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"medvault/internal/obs"
	"medvault/internal/vcrypto"
)

// Index instrumentation: the SSE share of write and query cost, for the
// encrypted-vs-plaintext index overhead curve (experiment E4).
var (
	metAddSeconds = obs.Default.Histogram("medvault_index_add_seconds",
		"SSE index document-ingest latency.", obs.LatencyBuckets)
	metSearchSeconds = obs.Default.Histogram("medvault_index_search_seconds",
		"SSE index query latency.", obs.LatencyBuckets)
)

// token is a keyword's search token: HMAC-SHA-256 of the normalized word
// under the token key.
type token = [32]byte

// SSE is a searchable-symmetric-encryption index. Keywords never appear in
// its stored form: each keyword is mapped to a pseudorandom token with
// HMAC-SHA-256 under a secret token key, and the whole index is sealed with
// AES-GCM under a separate value key before serialization. An adversary
// holding the index bytes sees one ciphertext and its length — nothing
// lexical, not even how many tokens or postings it holds.
//
// In memory every token and every document ID is interned once to a dense
// ordinal: a document keeps the ordinals of its tokens (for secure
// deletion), a token ordinal keeps the set of document ordinals that
// contain it. Ordinals freed by Remove are reused.
//
// Search cost is one HMAC plus a hash lookup, the same complexity class as
// the plaintext index; the paper's required trade-off is a constant factor,
// not an asymptotic penalty (experiment E4 measures it).
type SSE struct {
	mu       sync.RWMutex
	tokenKey vcrypto.Key
	valueKey vcrypto.Key

	tokOrd   map[token]uint32      // live token -> ordinal
	toks     []token               // ordinal -> token (zero when free)
	postings []map[uint32]struct{} // token ordinal -> doc ordinals
	freeToks []uint32

	docOrd   map[string]uint32 // live doc ID -> ordinal
	docs     []sseDoc          // ordinal -> doc (zero when free)
	freeDocs []uint32
}

type sseDoc struct {
	id   string
	toks []uint32 // token ordinals, for secure deletion
}

var _ Index = (*SSE)(nil)

// NewSSE returns an empty SSE index keyed from master. Token and value keys
// are domain-separated derivations, so the same master secret can safely
// drive the envelope layer elsewhere.
func NewSSE(master vcrypto.Key) *SSE {
	return &SSE{
		tokenKey: vcrypto.DeriveKey(master, "index/token"),
		valueKey: vcrypto.DeriveKey(master, "index/value"),
		tokOrd:   make(map[token]uint32),
		docOrd:   make(map[string]uint32),
	}
}

// token maps a normalized keyword to its pseudorandom search token. The
// token key is immutable, so tokenization needs no lock — callers compute
// tokens before entering the mutex, keeping the HMAC work (the dominant
// per-keyword cost) out of the serialized section under concurrency.
func (s *SSE) token(word string) token {
	return token(vcrypto.MAC(s.tokenKey, []byte(word)))
}

// Add implements Index.
func (s *SSE) Add(id, text string) {
	defer metAddSeconds.ObserveSince(time.Now())
	words := Tokenize(text)
	toks := make([]token, len(words))
	mac := vcrypto.NewMACer(s.tokenKey)
	for i, w := range words {
		toks[i] = token(mac.MAC([]byte(w)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(id)
	s.addLocked(id, toks)
}

// addLocked indexes a document that is not in the index. It reports
// whether toks were distinct, as Tokenize's always are; a repeated token
// would be freed twice by Remove.
func (s *SSE) addLocked(id string, toks []token) bool {
	d := s.allocDoc(id)
	ords := make([]uint32, len(toks))
	distinct := true
	for i, tok := range toks {
		t := s.intern(tok)
		set := s.postings[t]
		if _, dup := set[d]; dup {
			distinct = false
		}
		set[d] = struct{}{}
		ords[i] = t
	}
	s.docs[d].toks = ords
	return distinct
}

func (s *SSE) allocDoc(id string) uint32 {
	var d uint32
	if n := len(s.freeDocs); n > 0 {
		d, s.freeDocs = s.freeDocs[n-1], s.freeDocs[:n-1]
	} else {
		d = uint32(len(s.docs))
		s.docs = append(s.docs, sseDoc{})
	}
	s.docs[d].id = id
	s.docOrd[id] = d
	return d
}

// intern returns tok's ordinal, giving it one (with an empty posting set)
// if it has none.
func (s *SSE) intern(tok token) uint32 {
	if t, ok := s.tokOrd[tok]; ok {
		return t
	}
	var t uint32
	if n := len(s.freeToks); n > 0 {
		t, s.freeToks = s.freeToks[n-1], s.freeToks[:n-1]
	} else {
		t = uint32(len(s.toks))
		s.toks = append(s.toks, token{})
		s.postings = append(s.postings, nil)
	}
	s.toks[t] = tok
	s.postings[t] = make(map[uint32]struct{})
	s.tokOrd[tok] = t
	return t
}

// set returns the posting set of tok, nil if no document holds it.
func (s *SSE) set(tok token) map[uint32]struct{} {
	if t, ok := s.tokOrd[tok]; ok {
		return s.postings[t]
	}
	return nil
}

// ids maps doc ordinals back to their IDs, sorted.
func (s *SSE) ids(ords []uint32) []string {
	if ords == nil {
		return nil
	}
	out := make([]string, len(ords))
	for i, d := range ords {
		out[i] = s.docs[d].id
	}
	sort.Strings(out)
	return out
}

// Search implements Index.
func (s *SSE) Search(keyword string) []string {
	defer metSearchSeconds.ObserveSince(time.Now())
	tok := s.token(NormalizeQuery(keyword))
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := s.set(tok)
	ords := make([]uint32, 0, len(set))
	for d := range set {
		ords = append(ords, d)
	}
	return s.ids(ords)
}

// SearchAll implements Index: conjunctive queries cost one HMAC per keyword
// plus a set intersection, with the same leakage profile as single-keyword
// search (the server learns which tokens co-occur in the query, nothing
// lexical).
func (s *SSE) SearchAll(keywords ...string) []string {
	defer metSearchSeconds.ObserveSince(time.Now())
	toks := make([]token, 0, len(keywords))
	for _, kw := range keywords {
		toks = append(toks, s.token(NormalizeQuery(kw)))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sets := make([]map[uint32]struct{}, 0, len(toks))
	for _, tok := range toks {
		set := s.set(tok)
		if len(set) == 0 {
			return nil
		}
		sets = append(sets, set)
	}
	return s.ids(intersect(sets))
}

// AddCtx is Add recording an "index.add" span on the trace carried by ctx.
func (s *SSE) AddCtx(ctx context.Context, id, text string) {
	_, sp := obs.StartSpan(ctx, "index.add")
	s.Add(id, text)
	sp.End(nil)
}

// SearchCtx is Search recording an "index.search" span. The keyword is
// deliberately NOT attached to the span: traces are an unauthenticated debug
// surface, and query terms are PHI-adjacent exactly like the SSE threat
// model says.
func (s *SSE) SearchCtx(ctx context.Context, keyword string) []string {
	_, sp := obs.StartSpan(ctx, "index.search")
	out := s.Search(keyword)
	sp.SetAttr("hits", strconv.Itoa(len(out)))
	sp.End(nil)
	return out
}

// SearchAllCtx is SearchAll recording an "index.search" span.
func (s *SSE) SearchAllCtx(ctx context.Context, keywords ...string) []string {
	_, sp := obs.StartSpan(ctx, "index.search")
	sp.SetAttr("keywords", strconv.Itoa(len(keywords)))
	out := s.SearchAll(keywords...)
	sp.SetAttr("hits", strconv.Itoa(len(out)))
	sp.End(nil)
	return out
}

// RemoveCtx is Remove recording an "index.remove" span.
func (s *SSE) RemoveCtx(ctx context.Context, id string) {
	_, sp := obs.StartSpan(ctx, "index.remove")
	s.Remove(id)
	sp.End(nil)
}

// Remove implements Index. Because the document's own token list is kept,
// deletion removes every posting without scanning the whole index — the
// secure-deletion-from-inverted-index construction of the paper's ref [10].
// A token left with no postings is forgotten too, so neither the ID nor a
// token only this document had stays in memory or reaches a snapshot.
func (s *SSE) Remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(id)
}

func (s *SSE) removeLocked(id string) {
	d, ok := s.docOrd[id]
	if !ok {
		return
	}
	for _, t := range s.docs[d].toks {
		set := s.postings[t]
		delete(set, d)
		if len(set) == 0 {
			delete(s.tokOrd, s.toks[t])
			s.toks[t] = token{}
			s.postings[t] = nil
			s.freeToks = append(s.freeToks, t)
		}
	}
	delete(s.docOrd, id)
	s.docs[d] = sseDoc{}
	s.freeDocs = append(s.freeDocs, d)
}

// Len implements Index.
func (s *SSE) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docOrd)
}

// Snapshot implements Index. Layout (version 2):
//
//	magic "MVSX" | u16 version | u32 n | n bytes Seal(valueKey, table, aad=magic|version)
//
// where the sealed table is
//
//	uvarint nTokens { 32-byte token }*          live tokens, sorted
//	uvarint nDocs   { uvarint idLen | id | uvarint n | uvarint tokenOrdinal * n }*
//
// with documents sorted by ID and token ordinals indexing the token list.
// Posting sets are the transpose of the docs table, so they are not
// stored; LoadSSE rebuilds them.
func (s *SSE) Snapshot() ([]byte, error) {
	s.mu.RLock()
	live := make([]uint32, 0, len(s.tokOrd))
	for _, t := range s.tokOrd {
		live = append(live, t)
	}
	sort.Slice(live, func(i, j int) bool {
		return bytes.Compare(s.toks[live[i]][:], s.toks[live[j]][:]) < 0
	})
	renum := make([]uint32, len(s.toks))
	plain := binary.AppendUvarint(nil, uint64(len(live)))
	for i, t := range live {
		renum[t] = uint32(i)
		plain = append(plain, s.toks[t][:]...)
	}
	plain = binary.AppendUvarint(plain, uint64(len(s.docOrd)))
	for _, id := range sortedKeys(s.docOrd) {
		doc := s.docs[s.docOrd[id]]
		plain = binary.AppendUvarint(plain, uint64(len(id)))
		plain = append(plain, id...)
		plain = binary.AppendUvarint(plain, uint64(len(doc.toks)))
		for _, t := range doc.toks {
			plain = binary.AppendUvarint(plain, uint64(renum[t]))
		}
	}
	s.mu.RUnlock()
	sealed, err := vcrypto.Seal(s.valueKey, plain, sseHeader)
	if err != nil {
		return nil, fmt.Errorf("index: sealing snapshot: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(sseHeader) + 4 + len(sealed))
	buf.Write(sseHeader)
	writeBytes(&buf, sealed)
	return buf.Bytes(), nil
}

const sseMagic = "MVSX"

// sseHeader is a version 2 snapshot's magic and version, and the AAD of its
// sealed table: a blob cannot be replayed under another version's parser.
var sseHeader = []byte(sseMagic + "\x00\x02")

// LoadSSE reconstructs an SSE index from a snapshot using the same master
// key it was built with. Tampered snapshots fail authenticated decryption.
// It reads both the current version 2 and the version 1 layout that vaults
// written before it hold.
func LoadSSE(master vcrypto.Key, snap []byte) (*SSE, error) {
	s := NewSSE(master)
	r := bytes.NewReader(snap)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != sseMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ver, err := readU16(r)
	if err != nil {
		return nil, fmt.Errorf("%w: bad version", ErrCorrupt)
	}
	switch ver {
	case 1:
		err = s.loadV1(r)
	case 2:
		err = s.loadV2(r)
	default:
		return nil, fmt.Errorf("%w: bad version %d", ErrCorrupt, ver)
	}
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return s, nil
}

func (s *SSE) loadV2(r *bytes.Reader) error {
	sealed, err := readBytesField(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	plain, err := vcrypto.Open(s.valueKey, sealed, sseHeader)
	if err != nil {
		return fmt.Errorf("index: opening snapshot: %w", err)
	}
	return s.decodeV2(plain)
}

// decodeV2 rebuilds the index from a version 2 table. Every count is
// checked against the bytes left before anything is allocated for it.
func (s *SSE) decodeV2(p []byte) error {
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		p = p[n:]
		return v, nil
	}
	nTok, err := uvarint()
	if err != nil {
		return err
	}
	if nTok > uint64(len(p)/len(token{})) {
		return fmt.Errorf("%w: %d tokens exceed the table", ErrCorrupt, nTok)
	}
	table := make([]token, nTok)
	for i := range table {
		p = p[copy(table[i][:], p):]
	}
	nDocs, err := uvarint()
	if err != nil {
		return err
	}
	// A document takes at least two bytes: its ID length and token count.
	if nDocs > uint64(len(p)/2) {
		return fmt.Errorf("%w: %d documents exceed the table", ErrCorrupt, nDocs)
	}
	for i := uint64(0); i < nDocs; i++ {
		n, err := uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(p)) {
			return fmt.Errorf("%w: ID length %d exceeds the table", ErrCorrupt, n)
		}
		id := string(p[:n])
		p = p[n:]
		if n, err = uvarint(); err != nil {
			return err
		}
		if n > uint64(len(p)) {
			return fmt.Errorf("%w: %d token ordinals exceed the table", ErrCorrupt, n)
		}
		toks := make([]token, n)
		for j := range toks {
			t, err := uvarint()
			if err != nil {
				return err
			}
			if t >= nTok {
				return fmt.Errorf("%w: token ordinal %d of %d", ErrCorrupt, t, nTok)
			}
			toks[j] = table[t]
		}
		if err := s.load(id, toks); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: trailing bytes in table", ErrCorrupt)
	}
	return nil
}

// load adds a document read from a snapshot, rejecting a repeated ID or
// token that no writer produces.
func (s *SSE) load(id string, toks []token) error {
	if _, dup := s.docOrd[id]; dup {
		return fmt.Errorf("%w: document listed twice", ErrCorrupt)
	}
	if !s.addLocked(id, toks) {
		return fmt.Errorf("%w: token listed twice in a document", ErrCorrupt)
	}
	return nil
}

// loadV1 reads the version 1 layout:
//
//	u32 nTokens { str hexToken | sealed postings }*   sealed under valueKey, aad=hexToken
//	sealed docs table                                 aad="docs"
//
// where a postings blob decrypts to u32 n { str docID }*, and the docs
// table to u32 nDocs { str docID | u32 n | str hexToken * n }*. Each
// postings blob is authenticated but otherwise unused: postings are the
// transpose of the docs table, which is rebuilt from.
func (s *SSE) loadV1(r *bytes.Reader) error {
	nTok, err := readU32(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i := uint32(0); i < nTok; i++ {
		tok, err := readStr(r)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		sealed, err := readBytesField(r)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if _, err := vcrypto.Open(s.valueKey, sealed, []byte(tok)); err != nil {
			return fmt.Errorf("index: opening postings for token %.8s…: %w", tok, err)
		}
	}
	sealedDocs, err := readBytesField(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	docsPlain, err := vcrypto.Open(s.valueKey, sealedDocs, []byte("docs"))
	if err != nil {
		return fmt.Errorf("index: opening docs table: %w", err)
	}
	dr := bytes.NewReader(docsPlain)
	nDocs, err := readU32(dr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i := uint32(0); i < nDocs; i++ {
		id, err := readStr(dr)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		nt, err := readU32(dr)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		// A token takes 4 length bytes and 64 hex digits.
		if int64(nt) > int64(dr.Len()/68) {
			return fmt.Errorf("%w: %d tokens exceed the docs table", ErrCorrupt, nt)
		}
		toks := make([]token, nt)
		for j := range toks {
			h, err := readStr(dr)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if len(h) != hex.EncodedLen(len(token{})) {
				return fmt.Errorf("%w: token of %d hex digits", ErrCorrupt, len(h))
			}
			if _, err := hex.Decode(toks[j][:], []byte(h)); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
		if err := s.load(id, toks); err != nil {
			return err
		}
	}
	if dr.Len() != 0 {
		return fmt.Errorf("%w: trailing bytes in docs table", ErrCorrupt)
	}
	return nil
}

// StorageBytes implements Index.
func (s *SSE) StorageBytes() int {
	snap, err := s.Snapshot()
	if err != nil {
		return 0
	}
	return len(snap)
}
