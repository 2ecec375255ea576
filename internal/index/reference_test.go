package index

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"unicode"

	"medvault/internal/vcrypto"
)

// The implementations the current ones replaced, kept as differential
// references: tokenizeReference is the two-pass tokenizer, snapshotV1 the
// version 1 SSE snapshot encoder that vaults written before version 2 hold.

func tokenizeReference(text string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, field := range strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsNumber(r)
	}) {
		w := strings.ToLower(field)
		if len(w) < 2 || stopwords[w] || seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	return out
}

// snapshotV1 writes s in the version 1 layout:
//
//	magic "MVSX" | u16 1 | u32 nTokens
//	  { str hexToken | sealed postings }*     sealed under valueKey, aad=hexToken
//	sealed docs table                         aad="docs"
//
// where a sealed postings blob decrypts to u32 n { str docID }*, and the
// docs table decrypts to u32 nDocs { str docID | u32 n | str hexToken * n }*.
func snapshotV1(s *SSE) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hexTok := func(t uint32) string { return fmt.Sprintf("%x", s.toks[t]) }
	postings := make(map[string][]string)
	for t, set := range s.postings {
		for d := range set {
			postings[hexTok(uint32(t))] = append(postings[hexTok(uint32(t))], s.docs[d].id)
		}
	}
	var buf bytes.Buffer
	buf.WriteString(sseMagic)
	writeU16(&buf, 1)
	writeU32(&buf, uint32(len(postings)))
	for _, tok := range sortedKeys(postings) {
		writeStr(&buf, tok)
		ids := postings[tok]
		sort.Strings(ids)
		var plain bytes.Buffer
		writeU32(&plain, uint32(len(ids)))
		for _, id := range ids {
			writeStr(&plain, id)
		}
		sealed, err := vcrypto.Seal(s.valueKey, plain.Bytes(), []byte(tok))
		if err != nil {
			return nil, err
		}
		writeBytes(&buf, sealed)
	}
	var docs bytes.Buffer
	writeU32(&docs, uint32(len(s.docOrd)))
	for _, id := range sortedKeys(s.docOrd) {
		doc := s.docs[s.docOrd[id]]
		writeStr(&docs, id)
		writeU32(&docs, uint32(len(doc.toks)))
		for _, t := range doc.toks {
			writeStr(&docs, hexTok(t))
		}
	}
	sealed, err := vcrypto.Seal(s.valueKey, docs.Bytes(), []byte("docs"))
	if err != nil {
		return nil, err
	}
	writeBytes(&buf, sealed)
	return buf.Bytes(), nil
}
