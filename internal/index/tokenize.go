// Package index implements keyword search over records in two forms: a
// plaintext inverted index (the conventional, privacy-leaking baseline) and a
// searchable-symmetric-encryption (SSE) index whose stored form reveals no
// keywords.
//
// The paper's motivating example: "if the keyword Cancer is present in a
// medical [record], then an adversary can assume that the patient might have
// Cancer. So, the index itself must be trustworthy, and confidential." The
// SSE index stores HMAC-derived tokens instead of keywords and encrypts its
// posting lists, so an insider reading the index bytes learns neither the
// vocabulary nor which record matches which term. Both indexes support
// secure deletion of a document's postings (the paper's reference [10],
// Mitra & Winslett, StorageSS'06).
package index

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords are high-frequency English terms excluded from the index; they
// carry no diagnostic signal and inflate posting lists.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true, "he": true,
	"in": true, "is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "she": true, "that": true, "the": true, "to": true, "was": true,
	"were": true, "will": true, "with": true, "no": true, "not": true,
}

// Tokenize normalizes text into the keyword set to be indexed: lower-cased,
// split on every rune that is neither a letter nor a number, stopwords and
// one-byte words removed, deduplicated in order of first occurrence. Order
// is not meaningful to the index; the result is a set rendered as a slice.
//
// It is one pass: each rune is lowered into a reused buffer, and a word is
// allocated only the first time it is seen.
func Tokenize(text string) []string {
	var (
		out  []string
		seen = make(map[string]struct{})
		arr  [64]byte
	)
	word := arr[:0]
	// A stopword goes into seen too, so every repeat of any word costs
	// one lookup.
	flush := func() {
		if len(word) >= 2 {
			if _, dup := seen[string(word)]; !dup {
				w := string(word)
				seen[w] = struct{}{}
				if !stopwords[w] {
					out = append(out, w)
				}
			}
		}
		word = word[:0]
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsNumber(r) {
			word = utf8.AppendRune(word, unicode.ToLower(r))
		} else if len(word) > 0 {
			flush()
		}
	}
	flush()
	return out
}

// NormalizeQuery canonicalizes a single search keyword the same way
// Tokenize canonicalizes indexed text.
func NormalizeQuery(keyword string) string {
	return strings.ToLower(strings.TrimFunc(keyword, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsNumber(r)
	}))
}
