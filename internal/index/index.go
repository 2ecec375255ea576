package index

import (
	"errors"
	"sort"
	"sync"
)

// Index is a keyword → document-ID index with secure deletion.
type Index interface {
	// Add indexes the keywords of text under document id, replacing any
	// previous postings for id.
	Add(id, text string)
	// Search returns the IDs of documents containing keyword, sorted.
	Search(keyword string) []string
	// SearchAll returns the IDs of documents containing every keyword
	// (conjunctive query), sorted. No keywords means no results.
	SearchAll(keywords ...string) []string
	// Remove securely deletes every posting that mentions id. After Remove,
	// no query — and no inspection of the index bytes — reveals that id was
	// ever indexed.
	Remove(id string)
	// Len returns the number of indexed documents.
	Len() int
	// Snapshot serializes the index for backup/migration.
	Snapshot() ([]byte, error)
	// StorageBytes reports the serialized size, for the cost experiment.
	StorageBytes() int
}

// ErrCorrupt indicates an undecodable index snapshot.
var ErrCorrupt = errors.New("index: corrupt snapshot")

// Plaintext is the conventional inverted index: keyword → posting set, held
// in the clear. It is the baseline the paper criticizes — fast and simple,
// but its stored form leaks the entire vocabulary and document-term matrix
// to anyone who can read the index bytes.
type Plaintext struct {
	mu       sync.RWMutex
	postings map[string]map[string]bool // keyword -> set of doc IDs
	docs     map[string][]string        // doc ID -> its keywords (for Remove)
}

var _ Index = (*Plaintext)(nil)

// NewPlaintext returns an empty plaintext index.
func NewPlaintext() *Plaintext {
	return &Plaintext{
		postings: make(map[string]map[string]bool),
		docs:     make(map[string][]string),
	}
}

// Add implements Index.
func (p *Plaintext) Add(id, text string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removeLocked(id)
	words := Tokenize(text)
	p.docs[id] = words
	for _, w := range words {
		set, ok := p.postings[w]
		if !ok {
			set = make(map[string]bool)
			p.postings[w] = set
		}
		set[id] = true
	}
}

// Search implements Index.
func (p *Plaintext) Search(keyword string) []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	set := p.postings[NormalizeQuery(keyword)]
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SearchAll implements Index by intersecting posting sets, smallest first.
func (p *Plaintext) SearchAll(keywords ...string) []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	sets := make([]map[string]bool, 0, len(keywords))
	for _, kw := range keywords {
		set := p.postings[NormalizeQuery(kw)]
		if len(set) == 0 {
			return nil
		}
		sets = append(sets, set)
	}
	out := intersect(sets)
	sort.Strings(out)
	return out
}

// Remove implements Index.
func (p *Plaintext) Remove(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removeLocked(id)
}

func (p *Plaintext) removeLocked(id string) {
	for _, w := range p.docs[id] {
		if set := p.postings[w]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(p.postings, w)
			}
		}
	}
	delete(p.docs, id)
}

// Len implements Index.
func (p *Plaintext) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.docs)
}

// intersect returns the intersection of posting sets, unsorted, nil if
// it is empty. Scanning the smallest set bounds the work by the rarest
// keyword's selectivity.
func intersect[K comparable, V any](sets []map[K]V) []K {
	if len(sets) == 0 {
		return nil
	}
	smallest := sets[0]
	for _, s := range sets[1:] {
		if len(s) < len(smallest) {
			smallest = s
		}
	}
	var out []K
outer:
	for k := range smallest {
		for _, s := range sets {
			if _, ok := s[k]; !ok {
				continue outer
			}
		}
		out = append(out, k)
	}
	return out
}

// Terms returns the indexed vocabulary, sorted — trivially available here,
// impossible on the SSE index. The leakage experiment exploits exactly this
// asymmetry.
func (p *Plaintext) Terms() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.postings))
	for w := range p.postings {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
